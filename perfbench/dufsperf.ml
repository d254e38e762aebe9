(* The DUFS benchmark program.

     dufsperf.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload (fresh stack each time) for S host
   seconds and reports the end-to-end metrics: the virtual ones from the
   first repetition (every repetition must reproduce them exactly, event
   counts included) and the peak heap of that first repetition in this
   fresh process. The first repetition is a warm-up. Each later one runs
   with a fixed reference kernel sampled inside it (Calib), and run_s and
   setup_s are the medians of the later repetitions' times in reference
   seconds (Perfstats.calibrated), which cancels most of the shared
   machine's changes in speed.

   --trace 1 runs the workload once untraced and once traced, requires
   identical virtual metrics and event counts from both, and reports the
   per-layer metrics of the traced run, the tracing overhead, and writes
   the spans to perfbench/out/.

   The last line of standard output is one JSON object: correct,
   attempted, failed, metrics. A violated output check prints it with
   "correct": false and exits 1. *)

let workloads =
  [ ("paper-fig8", Stack.paper_fig8);
    ("sharded-pipelined", Stack.sharded_pipelined);
    ("lease-reads", Stack.lease_reads);
    ("outage-recovery", Stack.outage_recovery) ]

(* The virtual end-to-end metrics, in report order, with their units. *)
let virtual_units =
  [ ("write_ops_s", "1/s"); ("read_ops_s", "1/s"); ("write_p50_ms", "ms");
    ("write_p99_ms", "ms"); ("read_p50_ms", "ms"); ("read_p99_ms", "ms");
    ("ok_frac", "ratio") ]

let ends_with s suffix =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         if not (Float.is_finite v) then
           failwith (Printf.sprintf "metric %s is not finite" name);
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit_)
       metrics)

let finish ~failures ~attempted ~failed metrics =
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) attempted failed (json_metrics metrics);
  exit (if failures = [] then 0 else 1)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The virtual metrics and event count two runs of one seed must share. *)
let fingerprint (o : Stack.outcome) = (o.Stack.virt, o.Stack.events)

let same_virtual a b =
  (* exact equality, bit for bit *)
  fingerprint a = fingerprint b

(* Each repetition starts from a compacted heap, so repetitions do not
   inherit each other's garbage. *)
let fresh_run ~run ~traced =
  Gc.compact ();
  run ~traced

let untraced ~run ~seconds =
  let t0 = Unix.gettimeofday () in
  let first : Stack.outcome = fresh_run ~run ~traced:false in
  let heap = peak_heap_mb () in
  let timed = ref [] in
  (* at least three timed repetitions, so host medians are medians; no
     repetition that would end past the budget starts *)
  let last = ref (Unix.gettimeofday () -. t0) in
  while List.length !timed < 3 || Unix.gettimeofday () -. t0 +. !last <= seconds do
    let t = Unix.gettimeofday () in
    timed := Calib.sampled (fun () -> fresh_run ~run ~traced:false) :: !timed;
    last := Unix.gettimeofday () -. t
  done;
  let timed, speeds = List.split (List.rev !timed) in
  let reps = first :: timed in
  let failures =
    List.concat_map (fun (o : Stack.outcome) -> o.Stack.failures) reps
    |> List.sort_uniq compare
  in
  let failures =
    if List.for_all (same_virtual first) reps then failures
    else "determinism: repetitions of one seed differ in virtual metrics or events"
         :: failures
  in
  let host f = Perfstats.calibrated ~nominal:Calib.nominal_s ~speeds (List.map f timed) in
  let show fmt xs = String.concat " " (List.map (Printf.sprintf fmt) xs) in
  Printf.printf "repetitions: %d (1 warm-up), events per run: %d\n" (List.length reps)
    first.Stack.events;
  Printf.printf "  run_s   %s\n  setup_s %s\n  kernel  %s\n"
    (show "%.4f" (List.map (fun (o : Stack.outcome) -> o.Stack.run_s) reps))
    (show "%.5f" (List.map (fun (o : Stack.outcome) -> o.Stack.setup_s) reps))
    (show "%.6f" speeds);
  List.iter
    (fun (n, v) -> Printf.printf "  %-14s %.6g\n" n v)
    (List.filter (fun (n, _) -> ends_with n "_samples") first.Stack.virt);
  let metrics =
    List.map (fun (name, unit_) -> (name, unit_, List.assoc name first.Stack.virt))
      virtual_units
    @ [ ("run_s", "s", host (fun o -> o.Stack.run_s));
        ("setup_s", "s", host (fun o -> o.Stack.setup_s));
        ("peak_heap_mb", "MB", heap) ]
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-14s %.17g %s\n" n v u) metrics;
  finish ~failures ~attempted:first.Stack.attempted ~failed:first.Stack.failed metrics

let traced ~name ~seed ~run =
  let plain : Stack.outcome = fresh_run ~run ~traced:false in
  let tr : Stack.outcome = fresh_run ~run ~traced:true in
  let failures = List.sort_uniq compare (plain.Stack.failures @ tr.Stack.failures) in
  let failures =
    if same_virtual plain tr then failures
    else "trace neutrality: the traced run's virtual metrics or events differ" :: failures
  in
  (match tr.Stack.store with
   | Some s ->
     (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
     let path = Printf.sprintf "perfbench/out/spans-%s-%Ld.tsv" name seed in
     Spans.dump s path;
     Printf.printf "spans: %d written to %s\n" s.Spans.n path
   | None -> ());
  let metrics =
    tr.Stack.layers
    @ [ ("simkit.engine.ns_per_event", "ns",
         1e9 *. plain.Stack.run_s /. float_of_int (max 1 plain.Stack.events));
        ("trace.overhead_frac", "ratio", (tr.Stack.run_s /. plain.Stack.run_s) -. 1.);
        ("client.fail_frac", "ratio",
         Perfstats.fail_frac ~failed:tr.Stack.failed ~attempted:tr.Stack.attempted) ]
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-44s %14.6g %s\n" n v u) metrics;
  finish ~failures ~attempted:tr.Stack.attempted ~failed:tr.Stack.failed metrics

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of: "
        ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of repetitions (--trace 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "dufsperf.exe";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    let seed = !seed in
    let run ~traced = w ~seed ~traced () in
    Printf.printf "workload %s, seed %Ld, trace %d\n%!" !workload seed !trace;
    if !trace = 0 then untraced ~run ~seconds:!seconds
    else traced ~name:!workload ~seed ~run
