(* Tests for the benchmark's arithmetic: exact p50/p99 with the
   ten-beyond rule, self time as interval minus the union of children,
   the failure fraction with its base, and the calibrated host time. *)

open Perfstats

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true
let close a b = Float.abs (a -. b) < 1e-12

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* nearest rank: p50 of 1..100 is 50, p99 is 99 *)
  let a = ascending 100 in
  check "p50 of 1..100" (quantile a 0.5 = 50.);
  check "p99 of 1..100" (quantile a 0.99 = 99.);
  check "p100 is the max" (quantile a 1.0 = 100.);
  check "p50 of one sample" (quantile [| 7. |] 0.5 = 7.);
  check "p50 of odd count" (quantile (ascending 5) 0.5 = 3.);
  check "p50 of even count is the lower middle" (quantile (ascending 4) 0.5 = 2.);
  check "no samples" (raises (fun () -> quantile [||] 0.5));
  (* the ten-beyond rule for p99 *)
  check "1..100 has 1 beyond p99" (beyond 100 0.99 = 1);
  check "p99 withheld at 100 samples" (tail a 0.99 = None);
  check "p99 withheld at 999 samples" (tail (ascending 999) 0.99 = None);
  check "1000 samples leave 10 beyond p99" (beyond 1000 0.99 = 10);
  check "p99 reported at 1000 samples" (tail (ascending 1000) 0.99 = Some 990.);
  check "p99 reported at 2000 samples" (tail (ascending 2000) 0.99 = Some 1980.);
  let d = dist (ascending 1000) in
  check "dist count" (d.n = 1000);
  check "dist p50" (d.p50 = 500.);
  check "dist p99" (d.p99 = Some 990.);
  (* self time = interval minus the union of its children *)
  check "no children" (close (self_time ~start:0. ~stop:10. []) 10.);
  check "disjoint children"
    (close (self_time ~start:0. ~stop:10. [ (1., 2.); (4., 7.) ]) 6.);
  check "overlapping children count once"
    (close (self_time ~start:0. ~stop:10. [ (1., 5.); (3., 6.); (2., 4.) ]) 5.);
  check "nested child" (close (self_time ~start:0. ~stop:10. [ (1., 9.); (2., 3.) ]) 2.);
  check "touching children"
    (close (self_time ~start:0. ~stop:10. [ (1., 3.); (3., 5.) ]) 6.);
  check "children clipped to the parent"
    (close (self_time ~start:2. ~stop:10. [ (0., 4.); (9., 12.) ]) 5.);
  check "empty child ignored" (close (self_time ~start:0. ~stop:1. [ (0.5, 0.5) ]) 1.);
  check "full cover" (close (self_time ~start:0. ~stop:4. [ (0., 2.); (2., 4.) ]) 0.);
  (* fail_frac over its base *)
  check "none failed" (fail_frac ~failed:0 ~attempted:10 = 0.);
  check "a quarter failed" (fail_frac ~failed:25 ~attempted:100 = 0.25);
  check "all failed" (fail_frac ~failed:3 ~attempted:3 = 1.);
  check "empty base refused" (raises (fun () -> fail_frac ~failed:0 ~attempted:0));
  check "more failed than attempted refused"
    (raises (fun () -> fail_frac ~failed:4 ~attempted:3));
  (* repeat statistics *)
  check "median odd" (median [ 3.; 1.; 2. ] = 2.);
  check "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* calibration: each repetition scaled by the kernel's speed during it *)
  check "calibrated at nominal speed"
    (close (calibrated ~nominal:0.5 ~speeds:[ 0.5; 0.5; 0.5 ] [ 2.; 4.; 3. ]) 3.);
  check "calibrated cancels a uniformly slower machine"
    (close (calibrated ~nominal:0.5 ~speeds:[ 1.; 1.; 1. ] [ 4.; 4.; 4. ]) 2.);
  check "calibrated scales each repetition by its own speed"
    (close (calibrated ~nominal:1. ~speeds:[ 1.; 2.; 4. ] [ 3.; 6.; 12. ]) 3.);
  check "calibrated takes the median scaled time"
    (close (calibrated ~nominal:1. ~speeds:[ 1.; 1.; 1. ] [ 9.; 2.; 3. ]) 3.);
  check "calibrated refuses a missing speed"
    (raises (fun () -> calibrated ~nominal:1. ~speeds:[ 1. ] [ 1.; 1. ]));
  (* growable buffer keeps every sample *)
  let b = Fbuf.create () in
  for i = 1000 downto 1 do
    Fbuf.add b (float_of_int i)
  done;
  check "buffer length" (Fbuf.length b = 1000);
  check "buffer sorted" (Fbuf.sorted b = ascending 1000);
  if !failures > 0 then exit 1;
  print_endline "perfstats: all checks passed"
