(* The benchmark's own arithmetic: exact order statistics, interval
   unions for self time, failure fractions and the repeat statistics of
   host timings. Pure functions, tested in test/test_perfstats.ml. *)

(* A growable float buffer: latency samples are kept exactly, never
   bucketed. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len

  let sorted t =
    let a = to_array t in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank quantile of an ascending array: the smallest sample with
   at least [q * n] samples at or below it. *)
let rank n q =
  if n = 0 then invalid_arg "Perfstats.rank: no samples";
  if q <= 0. || q > 1. then invalid_arg "Perfstats.rank: q outside (0, 1]";
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r) - 1

let quantile sorted q = sorted.(rank (Array.length sorted) q)

(* Samples strictly after the quantile's rank. *)
let beyond n q = n - 1 - rank n q

(* A tail quantile is reported only when at least [min_beyond] samples
   lie beyond it; below that it would be a handful of outliers. *)
let min_beyond = 10

let tail sorted q =
  let n = Array.length sorted in
  if n > 0 && beyond n q >= min_beyond then Some (quantile sorted q) else None

(* Summary of one latency class: sample count, p50, and p99 when the
   rule allows it. *)
type dist = { n : int; p50 : float; p99 : float option }

let dist sorted =
  let n = Array.length sorted in
  if n = 0 then { n; p50 = nan; p99 = None }
  else { n; p50 = quantile sorted 0.5; p99 = tail sorted 0.99 }

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let union_within ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max lo s and e = Float.min hi e in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) ->
          if s <= ce then (total, Some (cs, Float.max ce e))
          else (total +. (ce -. cs), Some (s, e)))
      (0., None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

(* Self time of a span: its interval minus the part its children cover. *)
let self_time ~start ~stop children =
  (stop -. start) -. union_within ~lo:start ~hi:stop children

(* Failed over attempted; an empty base has no fraction. *)
let fail_frac ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Perfstats.fail_frac: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Perfstats.fail_frac: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted

(* Median of repeated host measurements (mean of the middle two for an
   even count). *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Perfstats.median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host times in reference seconds. Repetition i took [xs] i while a
   fixed reference kernel, which takes [nominal] on a quiet machine, took
   [speeds] i on average. Each repetition is scaled by nominal / speed,
   and the median of the scaled times is reported: the repetition's time
   on a machine of the nominal speed. *)
let calibrated ~nominal ~speeds xs =
  if List.length speeds <> List.length xs then
    invalid_arg "Perfstats.calibrated: one speed per repetition";
  median (List.map2 (fun x speed -> x *. nominal /. speed) xs speeds)
