(* The four workloads. Each composes the DUFS stack itself from the
   repository's public constructors, runs one closed-loop workload on a
   fresh engine, checks the outputs, and returns what it measured.

   Every client is closed loop: it sends its next op only after the
   previous reply. The seed is the only input: it seeds the ensemble,
   the clients' think times, the lease sessions' directory assignment
   and client CPU costs, and the fault plan. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Rng = Simkit.Rng
module Ensemble = Zk.Ensemble
module Zc = Zk.Zk_client
module Runner = Mdtest.Runner
module Fbuf = Perfstats.Fbuf

type outcome = {
  setup_s : float;                  (* host: build one stack (+ populate) *)
  run_s : float;                    (* host: workload start -> engine drain *)
  events : int;                     (* engine events of the timed run *)
  virt : (string * float) list;     (* virtual end-to-end metrics *)
  attempted : int;
  failed : int;
  layers : (string * string * float) list;  (* per-layer metrics: name, unit, value *)
  failures : string list;           (* violated output checks *)
  store : Spans.store option;
}

(* {2 Shared configuration} *)

(* Per-op FUSE crossing + DUFS bookkeeping charged by the client: the
   self time the tiling check expects of every DUFS op. *)
let dufs_overhead = Pfs.Costs.fuse_crossing +. Pfs.Costs.dufs_overhead

(* Mean client think time between two mdtest ops (exponential). Small
   against a metadata round trip; it makes the interleaving of the
   clients depend on the seed. *)
let think_mean = 20e-6

let host_now = Unix.gettimeofday

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* {2 Per-layer metrics} *)

type coord = {
  ensembles : Ensemble.t array;
  router : Zk.Shard_router.t option;
}

let sum_ens c f = Array.fold_left (fun acc e -> acc + f e) 0 c.ensembles

let sum_members c f =
  sum_ens c (fun e ->
      List.fold_left (fun acc id -> acc + f e id) 0 (Ensemble.member_ids e))

let ms x = 1000. *. x

(* Write-path tiling from the ensemble's own quorum-phase spans
   ([zk.<op>.<phase>]), pooled over op kinds: (count, mean per phase,
   mean total). *)
let quorum_phases trace =
  let m = Obs.Trace.metrics trace in
  let ops = [ "create"; "delete"; "set"; "multi" ] in
  let pooled suffix =
    List.fold_left
      (fun (n, sum) op ->
        match Obs.Metrics.summary_opt m (Printf.sprintf "zk.%s.%s.sum" op suffix) with
        | Some s when Simkit.Stat.Summary.count s > 0 ->
          let k = Simkit.Stat.Summary.count s in
          (n + k, sum +. (float_of_int k *. Simkit.Stat.Summary.mean s))
        | _ -> (n, sum))
      (0, 0.) ops
  in
  let n, total = pooled "total" in
  let mean (k, s) = if k > 0 then s /. float_of_int k else 0. in
  (n, List.map (fun p -> (p, mean (pooled p))) Obs.Trace.phases,
   if n > 0 then total /. float_of_int n else 0.)

let summary_mean m name =
  match Obs.Metrics.summary_opt m name with
  | Some s when Simkit.Stat.Summary.count s > 0 -> Simkit.Stat.Summary.mean s
  | _ -> 0.

let p50_p99 sorted =
  let d = Perfstats.dist sorted in
  ( (if d.Perfstats.n = 0 then 0. else ms d.Perfstats.p50),
    match d.Perfstats.p99 with Some v -> ms v | None -> 0. )

(* Span-derived metrics: per-op self time and child-call counts, the
   service round-trip distributions, the cache's call ratio, and the
   tiling check. *)
let span_metrics (s : Spans.store) ~dufs ~failures =
  let ops = s.Spans.next_op in
  let top_span = Array.make ops (-1) in
  let children = Array.make ops [] in
  let zk_w = Fbuf.create () and zk_r = Fbuf.create () in
  let zk_calls = ref 0 and zk_errors = ref 0 in
  let per_cls f = Array.make Spans.n_classes f in
  let ops_of = per_cls 0 and zk_of = per_cls 0 and pfs_of = per_cls 0 in
  for i = 0 to s.Spans.n - 1 do
    let op = s.Spans.op.(i) in
    if s.Spans.layer.(i) = Spans.layer_index Spans.Top then top_span.(op) <- i
    else if op >= 0 then children.(op) <- i :: children.(op);
    if s.Spans.layer.(i) = Spans.layer_index Spans.Zk_call then begin
      incr zk_calls;
      if not s.Spans.ok.(i) then incr zk_errors;
      let d = s.Spans.ve.(i) -. s.Spans.vs.(i) in
      if Spans.is_write (Spans.cls_of_index s.Spans.cls.(i))
         || s.Spans.cls.(i) = Spans.cls_index Spans.Other
      then Fbuf.add zk_w d
      else Fbuf.add zk_r d
    end
  done;
  let self_sum = ref 0. and tiled = ref 0 and untiled = ref 0 in
  Array.iteri
    (fun op top ->
      if top >= 0 then begin
        let c = s.Spans.cls.(top) in
        ops_of.(c) <- ops_of.(c) + 1;
        let kids = children.(op) in
        List.iter
          (fun k ->
            if s.Spans.layer.(k) = Spans.layer_index Spans.Zk_call then
              zk_of.(c) <- zk_of.(c) + 1
            else pfs_of.(c) <- pfs_of.(c) + 1)
          kids;
        let start = s.Spans.vs.(top) and stop = s.Spans.ve.(top) in
        let self =
          Perfstats.self_time ~start ~stop
            (List.map (fun k -> (s.Spans.vs.(k), s.Spans.ve.(k))) kids)
        in
        self_sum := !self_sum +. self;
        (* children run one at a time inside the op; with the union equal
           to their sum, self + children tile the op's latency *)
        let kid_sum =
          List.fold_left (fun a k -> a +. (s.Spans.ve.(k) -. s.Spans.vs.(k))) 0. kids
        in
        let gap = Float.abs (stop -. start -. self -. kid_sum) in
        if dufs && (Float.abs (self -. dufs_overhead) > 1e-9 || gap > 1e-9) then
          incr untiled
        else incr tiled
      end)
    top_span;
  if !untiled > 0 then
    failures :=
      Printf.sprintf
        "tiling: %d of %d DUFS ops are not (self = %.0f us configured overhead) \
         + sequential zk/pfs calls"
        !untiled (!tiled + !untiled) (dufs_overhead *. 1e6)
      :: !failures;
  let top_ops = max 1 ops in
  let per_op counts c =
    let i = Spans.cls_index c in
    if ops_of.(i) = 0 then 0. else float_of_int counts.(i) /. float_of_int ops_of.(i)
  in
  let w50, w99 = p50_p99 (Fbuf.sorted zk_w) and r50, r99 = p50_p99 (Fbuf.sorted zk_r) in
  let dufs_ops = if dufs then ops else 0 in
  [ ("dufs.client.ops", "count", float_of_int dufs_ops);
    ("dufs.client.self_ms", "ms",
     if dufs then ms (!self_sum /. float_of_int top_ops) else 0.) ]
  @ List.concat_map
      (fun c ->
        let n = Spans.cls_name c in
        [ ("dufs.client.zk_calls_per_op." ^ n, "ratio", if dufs then per_op zk_of c else 0.);
          ("dufs.client.pfs_calls_per_op." ^ n, "ratio", if dufs then per_op pfs_of c else 0.) ])
      [ Spans.Mkdir; Spans.Rmdir; Spans.Create; Spans.Unlink; Spans.Stat ]
  @ [ ("zk.client.calls", "count", float_of_int !zk_calls);
      ("zk.client.errors", "count", float_of_int !zk_errors);
      ("zk.client.write_p50_ms", "ms", w50);
      ("zk.client.write_p99_ms", "ms", w99);
      ("zk.client.read_p50_ms", "ms", r50);
      ("zk.client.read_p99_ms", "ms", r99);
      ("simkit.engine.pending_peak", "count", float_of_int s.Spans.pending_peak) ],
  (* read ops above the cache, and the service calls they caused *)
  (let reads counts =
     counts.(Spans.cls_index Spans.Stat) + counts.(Spans.cls_index Spans.Readdir)
   in
   (reads ops_of, reads zk_of))

(* Counter-derived metrics, identical in traced and untraced runs. *)
let counter_metrics c ~trace ~mounts ~virt_wall ~ops ~events =
  let committed = sum_ens c Ensemble.writes_committed in
  let fanouts = sum_ens c Ensemble.commit_fanouts
  and piggy = sum_ens c Ensemble.piggybacked_commits in
  let sent = sum_ens c (fun e -> Simkit.Net.sent (Ensemble.net e))
  and dropped = sum_ens c (fun e -> Simkit.Net.dropped (Ensemble.net e)) in
  let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n in
  let m = Obs.Trace.metrics trace in
  let _, phase_means, _ = quorum_phases trace in
  let phase name = ms (List.assoc name phase_means) in
  let holds =
    Array.fold_left
      (fun acc mt ->
        let h = Pfs.Lustre_sim.mds_hold_summary mt in
        acc +. (float_of_int (Simkit.Stat.Summary.count h) *. Simkit.Stat.Summary.mean h))
      0. mounts
  in
  let pooled_mean get =
    let n, sum =
      Array.fold_left
        (fun (n, sum) mt ->
          let s = get mt in
          let k = Simkit.Stat.Summary.count s in
          (n + k, if k > 0 then sum +. (float_of_int k *. Simkit.Stat.Summary.mean s) else sum))
        (0, 0.) mounts
    in
    if n = 0 then 0. else sum /. float_of_int n
  in
  let router_stat f =
    match c.router with
    | None -> 0.
    | Some r -> per (f (Zk.Shard_router.stats r)) ops
  in
  let observer_reads, all_reads =
    Array.fold_left
      (fun (o, a) e ->
        let voters = (Ensemble.config e).Ensemble.servers in
        List.fold_left
          (fun (o, a) id ->
            let r = Ensemble.reads_served e id in
            ((if id >= voters then o + r else o), a + r))
          (o, a) (Ensemble.member_ids e))
      (0, 0) c.ensembles
  in
  [ ("zk.ensemble.queue_wait_ms", "ms", phase "queue-wait");
    ("zk.ensemble.propose_ms", "ms", phase "propose");
    ("zk.ensemble.persist_ms", "ms", phase "persist");
    ("zk.ensemble.ack_ms", "ms", phase "ack");
    ("zk.ensemble.commit_ms", "ms", phase "commit");
    ("zk.ensemble.writes_committed", "count", float_of_int committed);
    ("zk.ensemble.piggyback_ratio", "ratio", per piggy (piggy + fanouts));
    ("zk.ensemble.leader_queue_depth", "count", summary_mean m "zk.leader.queue_depth");
    ("zk.ensemble.observer_read_share", "ratio", per observer_reads all_reads);
    ("zk.ensemble.dedup_hits", "count", float_of_int (sum_ens c Ensemble.dedup_hits));
    ("zk.ensemble.writes_failed_fast", "count", float_of_int (sum_ens c Ensemble.writes_failed_fast));
    ("zk.ensemble.sessions_expired", "count", float_of_int (sum_ens c Ensemble.sessions_expired));
    ("zk.lease.granted", "count", float_of_int (sum_ens c Ensemble.leases_granted));
    ("zk.lease.renewed", "count", float_of_int (sum_ens c Ensemble.leases_renewed));
    ("zk.lease.revoked", "count", float_of_int (sum_ens c Ensemble.leases_revoked));
    ("zk.lease.entries", "count", float_of_int (sum_members c Ensemble.lease_entries));
    ("zk.wal.appends_per_commit", "ratio", per (sum_ens c Ensemble.wal_appended) committed);
    ("zk.wal.replayed", "count", float_of_int (sum_ens c Ensemble.wal_replayed));
    ("zk.wal.truncated", "count", float_of_int (sum_ens c Ensemble.wal_truncated));
    ("zk.wal.diff_synced", "count", float_of_int (sum_ens c Ensemble.transfer_diff_txns));
    ("zk.wal.snap_transfers", "count", float_of_int (sum_ens c Ensemble.transfer_snaps));
    ("zk.wal.local_recovery_max_ms", "ms",
     ms (Array.fold_left (fun a e -> Float.max a (Ensemble.recovery_time_max e)) 0.
           c.ensembles));
    ("zk.shard_router.cross_shard_deletes_per_op", "ratio",
     router_stat (fun s -> s.Zk.Shard_router.cross_shard_deletes));
    ("zk.shard_router.cross_shard_multis_per_op", "ratio",
     router_stat (fun s -> s.Zk.Shard_router.cross_shard_multis));
    ("zk.shard_router.stub_creates_per_op", "ratio",
     router_stat (fun s -> s.Zk.Shard_router.stub_creates));
    ("zk.shard_router.rollbacks_per_op", "ratio",
     router_stat (fun s -> s.Zk.Shard_router.rollbacks));
    ("pfs.mds_wait_ms", "ms", ms (pooled_mean Pfs.Lustre_sim.mds_wait_summary));
    ("pfs.mds_hold_ms", "ms", ms (pooled_mean Pfs.Lustre_sim.mds_hold_summary));
    ("pfs.mds_util", "ratio",
     (let threads =
        Array.fold_left
          (fun a mt -> a + (Pfs.Lustre_sim.config mt).Pfs.Lustre_sim.mds_threads)
          0 mounts
      in
      if threads = 0 || virt_wall <= 0. then 0.
      else holds /. (virt_wall *. float_of_int threads)));
    ("pfs.lock_revokes", "count",
     float_of_int (Array.fold_left (fun a mt -> a + Pfs.Lustre_sim.lock_revokes mt) 0 mounts));
    ("simkit.engine.events", "count", float_of_int events);
    ("simkit.engine.events_per_op", "ratio", per events ops);
    ("simkit.net.msgs_per_write", "ratio", per sent committed);
    ("simkit.net.dropped", "count", float_of_int dropped) ]

(* The write tiling of the quorum phases: the five phase means must sum
   to the mean write latency the ensemble measured. *)
let check_quorum_tiling trace ~failures =
  let n, phases, total = quorum_phases trace in
  if n > 0 then begin
    let sum = List.fold_left (fun a (_, v) -> a +. v) 0. phases in
    if Float.abs (sum -. total) > 1e-9 *. Float.max 1. total then
      failures :=
        Printf.sprintf "quorum tiling: phases sum to %.9f s, writes took %.9f s" sum total
        :: !failures
  end

(* {2 The end-to-end numbers} *)

(* [virt_e2e] from the top-level samples and the virtual seconds of the
   phases that issued them. *)
let virt_e2e (r : Spans.recorder) ~attempted ~failed ~write_ops ~write_s ~read_ops
    ~read_s =
  let w = Spans.samples r Spans.is_write and rd = Spans.samples r Spans.is_read in
  let dist label sorted =
    let d = Perfstats.dist sorted in
    match d.Perfstats.p99 with
    | None ->
      failwith
        (Printf.sprintf "%s: %d samples leave fewer than %d beyond p99" label
           d.Perfstats.n Perfstats.min_beyond)
    | Some p99 -> (ms d.Perfstats.p50, ms p99, d.Perfstats.n)
  in
  let w50, w99, wn = dist "writes" w and r50, r99, rn = dist "reads" rd in
  [ ("write_ops_s", float_of_int write_ops /. write_s);
    ("read_ops_s", float_of_int read_ops /. read_s);
    ("write_p50_ms", w50);
    ("write_p99_ms", w99);
    ("read_p50_ms", r50);
    ("read_p99_ms", r99);
    ("ok_frac",
     1. -. Perfstats.fail_frac ~failed ~attempted);
    (* sample counts behind the percentiles, for the report *)
    ("write_samples", float_of_int wn);
    ("read_samples", float_of_int rn) ]

(* {2 mdtest over DUFS} *)

type mdtest_shape = {
  procs : int;
  dirs : int;                (* per proc *)
  files : int;               (* per proc *)
  backends : int;
}

let write_phase = function
  | Runner.Dir_create | Runner.Dir_remove | Runner.File_create | Runner.File_remove -> true
  | Runner.Dir_stat | Runner.File_stat -> false

(* Ops and virtual seconds of the write and the read phases. *)
let phase_totals (res : Runner.results) ~shape =
  List.fold_left
    (fun (wo, ws, ro, rs) (phase, rate) ->
      let per_proc =
        match phase with
        | Runner.Dir_create | Runner.Dir_stat | Runner.Dir_remove -> shape.dirs
        | Runner.File_create | Runner.File_stat | Runner.File_remove -> shape.files
      in
      let ops_per_phase = shape.procs * per_proc in
      let dt = float_of_int ops_per_phase /. rate in
      if write_phase phase then (wo + ops_per_phase, ws +. dt, ro, rs)
      else (wo, ws, ro + ops_per_phase, rs +. dt))
    (0, 0., 0, 0.) res.Runner.rates

(* [Scenarios.Systems] keeps its back-end builder private and hands out
   no mount handles; the per-layer getters need the mounts. *)
let lustre_mounts engine n =
  let layout = Dufs.Physical.default_layout in
  Array.init n (fun _ ->
      let m = Pfs.Lustre_sim.create engine ~config:(Pfs.Lustre_sim.backend_config ()) () in
      (match Dufs.Physical.format layout (Pfs.Lustre_sim.local_ops m) with
       | Ok () -> ()
       | Error e -> failwith (Fuselike.Errno.to_string e));
      m)

(* Set-ups per mdtest repetition; setup_s is their median. *)
let setup_tries = 16

(* Per-proc DUFS mount behind the boundary wrappers. *)
let dufs_ops ~engine ~seed ~ctx_of ~session_of ~mounts ~counted proc =
  let ctx : Spans.ctx = ctx_of () in
  let traced = ctx.Spans.store <> None in
  let session : Zc.handle = session_of proc in
  let coord = if traced then Spans.zk_child ctx session else session in
  let nb = Array.length mounts in
  let backends =
    Array.mapi
      (fun i m ->
        let c = Pfs.Lustre_sim.client m ~client_id:((proc * nb) + i) in
        if traced then Spans.vfs_child ctx c else c)
      mounts
  in
  let client =
    Dufs.Client.mount ~coord ~backends
      ~client_id:(Int64.of_int (proc + 1))
      ~layout:Dufs.Physical.default_layout
      ~clock:(fun () -> Engine.now engine)
      ~delay:Process.sleep ~overhead:dufs_overhead ()
  in
  let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int ((proc + 1) * 7919))) in
  let think () = Process.sleep (Rng.exponential rng ~mean:think_mean) in
  Spans.vfs_top ctx ~think ~counted (Dufs.Client.ops client)

(* One mdtest workload: [build] returns the coordination deployment and
   the per-proc session factory; [on_phase] lets a workload hook phase
   starts (census, fault plan); [drain] runs more simulation after mdtest
   inside the timed run (a probe); [after] runs after the timed run
   (oracles) and returns extra per-layer metrics plus the ops its own
   clients attempted and failed. *)
let mdtest_run ~seed ~traced ~shape ~build ~on_phase ~drain ~after ~census () =
  let failures = ref [] in
  let cfg =
    Mdtest.Workload.config ~dirs_per_proc:shape.dirs ~files_per_proc:shape.files
      ~procs:shape.procs ()
  in
  let skeleton = Hashtbl.create 128 in
  List.iter (fun p -> Hashtbl.replace skeleton p ()) (Mdtest.Workload.skeleton cfg);
  let setup () =
    let engine = Engine.create () in
    let trace = Obs.Trace.create () in
    if traced then Obs.Trace.enable trace;
    let coord, session_of = build engine trace in
    let mounts = lustre_mounts engine shape.backends in
    let rec_ = Spans.recorder () in
    let store = if traced then Some (Spans.store engine) else None in
    let ops_for_proc =
      dufs_ops ~engine ~seed ~ctx_of:(fun () -> Spans.ctx ?store rec_) ~session_of ~mounts
        ~counted:(fun p -> not (Hashtbl.mem skeleton p))
    in
    (engine, trace, coord, mounts, rec_, store, ops_for_proc)
  in
  (* The stack is set up [setup_tries] times, each from a collected heap,
     and the last one is kept ([build] keeps only its last stack). One
     sub-millisecond set-up is at the mercy of a GC slice or of fresh
     pages; the median of several is not. *)
  let times = ref [] and last = ref None in
  for _ = 1 to setup_tries do
    last := None;
    Gc.full_major ();
    let h = host_now () in
    let stack = setup () in
    times := (host_now () -. h) :: !times;
    last := Some stack
  done;
  let engine, trace, coord, mounts, rec_, store, ops_for_proc = Option.get !last in
  let h1 = host_now () in
  let ev0 = Engine.executed_events engine in
  let mw0, mc0 = gc_words () in
  let phase_start = Hashtbl.create 8 in
  let on_phase p =
    Hashtbl.replace phase_start p (Engine.now engine);
    (if p = Runner.File_stat then
       match census with
       | None -> ()
       | Some (count, expected) ->
         let got = count () in
         if got <> expected cfg then
           failures :=
             Printf.sprintf "census at the file-stat barrier: %d znodes, expected %d" got
               (expected cfg)
             :: !failures);
    on_phase p
  in
  let res = Runner.run ~on_phase engine cfg ~ops_for_proc in
  drain engine;
  let h2 = host_now () in
  let mw1, mc1 = gc_words () in
  let events = Engine.executed_events engine - ev0 in
  let extra, (extra_attempted, extra_failed) = after ~failures ~phase_start ~rec_ in
  let write_ops, write_s, read_ops, read_s = phase_totals res ~shape in
  let attempted = rec_.Spans.attempted + extra_attempted
  and failed = rec_.Spans.failed + extra_failed in
  let virt = virt_e2e rec_ ~attempted ~failed ~write_ops ~write_s ~read_ops ~read_s in
  let ops = rec_.Spans.attempted in
  let layers =
    (match store with
     | None -> []
     | Some s -> fst (span_metrics s ~dufs:true ~failures))
    @ counter_metrics coord ~trace ~mounts ~virt_wall:res.Runner.wall ~ops ~events
    @ [ ("dufs.cache.hit_ratio", "ratio", 0.);
        ("dufs.cache.calls_above", "count", 0.);
        ("dufs.cache.invalidations", "count", 0.);
        ("dufs.cache.lease_expired_hits", "count", 0.);
        ("host.minor_words_per_op", "words/op", (mw1 -. mw0) /. float_of_int (max 1 ops));
        ("host.major_collections", "count", float_of_int (mc1 - mc0)) ]
    @ extra
  in
  if traced then check_quorum_tiling trace ~failures;
  { setup_s = Perfstats.median !times;
    run_s = h2 -. h1;
    events;
    virt;
    attempted;
    failed;
    layers;
    failures = List.rev !failures;
    store }

let no_errors (r : outcome) =
  if r.failed > 0 then
    { r with failures = r.failures @ [ Printf.sprintf "mdtest: %d ops failed" r.failed ] }
  else r

let no_history = [ ("zk.history.ops_checked", "count", 0.); ("zk.history.check_s", "s", 0.);
                   ("outage.recovery_ms", "ms", 0.) ]

(* paper-fig8: one 8-voter stop-and-wait ensemble, uncached, 2x Lustre,
   64 procs. The quorum write path at its widest. *)
let paper_fig8 ~seed ~traced () =
  let shape = { procs = 64; dirs = 24; files = 24; backends = 2 } in
  let ensemble = ref None in
  let build engine trace =
    let cfg =
      { (Scenarios.Systems.zk_config ~servers:8 ~procs:shape.procs ()) with Ensemble.seed }
    in
    let e = Ensemble.start ~trace engine cfg in
    ensemble := Some e;
    ({ ensembles = [| e |]; router = None }, fun _ -> Ensemble.session e ())
  in
  let count () =
    let e = Option.get !ensemble in
    let id = match Ensemble.leader_id e with Some id -> id | None -> 0 in
    Zk.Ztree.node_count (Ensemble.tree_of e id)
  in
  no_errors
    (mdtest_run ~seed ~traced ~shape ~build
       ~on_phase:(fun _ -> ())
       ~drain:ignore
       ~after:(fun ~failures:_ ~phase_start:_ ~rec_:_ -> (no_history, (0, 0)))
       ~census:
         (Some
            ( count,
              (* "/" + the DUFS namespace root + skeleton + files *)
              fun cfg ->
                2 + List.length (Mdtest.Workload.skeleton cfg)
                + Mdtest.Workload.total_files cfg ))
       ())

(* sharded-pipelined: 4 shards x 3 voters, group commit 16, window 8,
   uncached, 2x Lustre, 128 procs. *)
let sharded_pipelined ~seed ~traced () =
  let shape = { procs = 128; dirs = 32; files = 16; backends = 2 } in
  let router = ref None in
  let build engine trace =
    let cfg =
      { (Scenarios.Systems.zk_config ~max_batch:16 ~servers:3 ~procs:shape.procs ()) with
        Ensemble.seed;
        max_inflight_batches = 8 }
    in
    let r = Zk.Shard_router.start ~trace engine ~shards:4 cfg in
    router := Some r;
    ( { ensembles = Zk.Shard_router.ensembles r; router = Some r },
      fun _ -> Zk.Shard_router.session r () )
  in
  (* per-shard node counts minus each shard's own root, minus stubs *)
  let count () =
    let r = Option.get !router in
    Array.fold_left (fun acc n -> acc + (n - 1)) 0 (Zk.Shard_router.node_counts r)
    - Zk.Shard_router.live_stubs (Zk.Shard_router.stats r)
  in
  no_errors
    (mdtest_run ~seed ~traced ~shape ~build
       ~on_phase:(fun _ -> ())
       ~drain:ignore
       ~after:(fun ~failures:_ ~phase_start:_ ~rec_:_ -> (no_history, (0, 0)))
       ~census:
         (Some
            ( count,
              (* the DUFS namespace root + skeleton + files *)
              fun cfg ->
                1 + List.length (Mdtest.Workload.skeleton cfg)
                + Mdtest.Workload.total_files cfg ))
       ())

(* {2 outage-recovery} *)

let outage_servers = 5

(* Fixed outage length: the seed picks when the power fails inside
   file-create and whose WAL tail is torn, not how long the cluster is
   down, so the seed-to-seed spread stays the recovery path's own. *)
let outage_length = 0.8

let outage_plan ~seed =
  let open Faults.Faultplan in
  let rng = Rng.create ~seed:(Int64.add seed 977L) in
  let t_crash = 0.02 +. (Rng.float rng *. 0.05) in
  let victim = Rng.int rng outage_servers in
  let ev off action = { anchor = After_phase ("file-create", off); action } in
  ( List.init outage_servers (fun id -> ev t_crash (Crash id))
    @ [ ev (t_crash +. (outage_length /. 2.)) (Torn_tail (None, victim));
        ev (t_crash +. outage_length) Restart_all_down ],
    t_crash +. outage_length )

let reg_dir k = Printf.sprintf "/reg%d" k

(* outage-recovery: 5 voters, 64-proc mdtest plus 8 register clients
   recorded through [Zk.History]; a seeded whole-cluster power failure
   during file-create with a torn WAL tail on one member. *)
let outage_recovery ~seed ~traced () =
  let shape = { procs = 64; dirs = 12; files = 12; backends = 2 } in
  let reg_clients = 8 and registers = 8 and ops_per_client = 50 in
  let ensemble = ref None and hist = ref None and armed = ref None in
  let plan, restart_at = outage_plan ~seed in
  let reg_ok = ref 0 and reg_err = ref 0 in
  let reg_ok_ends = Fbuf.create () in
  let build engine trace =
    let cfg =
      { (Scenarios.Systems.zk_config ~servers:outage_servers ~procs:shape.procs ()) with
        Ensemble.seed;
        request_timeout = 0.5;
        retry_backoff = 0.05;
        retry_backoff_cap = 1.0;
        session_timeout = 8.0;
        fail_fast_after = 2.0;
        snapshot_every = 384 }
    in
    let e = Ensemble.start ~trace engine cfg in
    let h = Zk.History.create engine in
    ensemble := Some e;
    hist := Some h;
    armed := Some (Faults.Faultplan.arm engine e plan);
    Process.spawn engine (fun () ->
        let s = Ensemble.session e () in
        for k = 0 to registers - 1 do
          match s.Zc.create (reg_dir k) ~data:"" with
          | Ok _ -> ()
          | Error err -> failwith ("register setup: " ^ Zk.Zerror.to_string err)
        done);
    for i = 0 to reg_clients - 1 do
      let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 6007))) in
      Process.spawn engine (fun () ->
          let c = ref (Zk.History.wrap h ~client:i (Ensemble.session e ())) in
          let n = ref 0 in
          let fresh () = incr n; Printf.sprintf "%d.%d" i !n in
          Process.sleep (0.2 +. Rng.exponential rng ~mean:0.02);
          for _ = 1 to ops_per_client do
            let reg = reg_dir (Rng.int rng registers) ^ "/r" in
            let is_write, outcome =
              match Rng.int rng 100 with
              | x when x < 40 -> (true, Result.map ignore ((!c).Zc.create reg ~data:(fresh ())))
              | x when x < 70 -> (true, (!c).Zc.set reg ~data:(fresh ()))
              | x when x < 85 -> (true, (!c).Zc.delete reg)
              | _ -> (false, Result.map ignore ((!c).Zc.get reg))
            in
            (match outcome with
             | Ok () ->
               incr reg_ok;
               if is_write then Fbuf.add reg_ok_ends (Process.now ())
             | Error (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS) -> incr reg_ok
             | Error Zk.Zerror.ZSESSIONEXPIRED ->
               incr reg_err;
               c := Zk.History.wrap h ~client:i (Ensemble.session e ());
               Process.sleep (Rng.exponential rng ~mean:0.2)
             | Error _ ->
               incr reg_err;
               Process.sleep (Rng.exponential rng ~mean:0.3));
            Process.sleep (Rng.exponential rng ~mean:0.02)
          done;
          (!c).Zc.close ())
    done;
    ({ ensembles = [| e |]; router = None }, fun _ -> Ensemble.session e ())
  in
  let on_phase p =
    Faults.Faultplan.notify_phase (Option.get !armed) (Runner.phase_to_string p)
  in
  let recovered = ref false in
  (* the drained run has restarted everyone; one more committed write
     proves the service is live again *)
  let drain engine =
    let e = Option.get !ensemble in
    Process.spawn engine (fun () ->
        let s = ref (Ensemble.session e ()) in
        let rec go attempt =
          if attempt <= 200 then
            match (!s).Zc.create (Printf.sprintf "/probe%d" attempt) ~data:"" with
            | Ok _ -> recovered := true
            | Error Zk.Zerror.ZSESSIONEXPIRED ->
              s := Ensemble.session e ();
              Process.sleep 0.05;
              go (attempt + 1)
            | Error _ ->
              Process.sleep 0.05;
              go (attempt + 1)
        in
        go 1);
    Engine.run engine
  in
  let after ~failures ~phase_start ~(rec_ : Spans.recorder) =
    let e = Option.get !ensemble and h = Option.get !hist in
    let h0 = host_now () in
    let violations = Zk.History.check ~max_states:2_000_000 h in
    let check_s = host_now () -. h0 in
    let lookup path =
      match Ensemble.leader_id e with
      | None -> None
      | Some id -> (
        match Zk.Ztree.get (Ensemble.tree_of e id) path with
        | Ok (data, _) -> Some data
        | Error _ -> None)
    in
    let lost = Zk.History.durability_audit h ~lookup in
    let agree =
      match Ensemble.alive_ids e with
      | [] -> false
      | id0 :: rest ->
        let f0 = Zk.Ztree.fingerprint (Ensemble.tree_of e id0) in
        List.for_all (fun id -> Zk.Ztree.fingerprint (Ensemble.tree_of e id) = f0) rest
    in
    let fail cond msg = if cond then failures := msg :: !failures in
    fail (violations <> []) (Printf.sprintf "%d linearizability violations" (List.length violations));
    fail (lost <> []) (Printf.sprintf "%d durability violations" (List.length lost));
    fail (not !recovered) "probe write never committed after the outage";
    fail (not agree) "live replicas disagree after recovery";
    fail (Faults.Faultplan.fired (Option.get !armed) <> outage_servers + 2)
      "the fault plan did not fire completely";
    (* restart-all -> the first write a client sees committed *)
    let t_restart = Hashtbl.find phase_start Runner.File_create +. restart_at in
    let first = ref infinity in
    let scan buf = Array.iter (fun t -> if t >= t_restart && t < !first then first := t)
        (Fbuf.to_array buf) in
    scan reg_ok_ends;
    scan rec_.Spans.ok_write_ends;
    fail (!first = infinity) "no write committed after restart-all";
    ( [ ("zk.history.ops_checked", "count", float_of_int (Zk.History.checked_ops h));
        ("zk.history.check_s", "s", check_s);
        ("outage.recovery_ms", "ms", if !first = infinity then 0. else ms (!first -. t_restart)) ],
      (!reg_ok + !reg_err, !reg_err) )
  in
  mdtest_run ~seed ~traced ~shape ~build ~on_phase ~drain ~after ~census:None ()

(* {2 lease-reads} *)

(* The fixed namespace the lease sessions read: 512 directories of 16
   files. *)
let n_dirs = 512
let n_files = 16
let dir_path d = Printf.sprintf "/d%03d" d
let file_path d f = Printf.sprintf "/d%03d/f%02d" d f

(* Client CPU per session op (a hash lookup plus a VFS dispatch), drawn
   uniformly from [0.5, 1.5) us per op. A cache hit costs exactly this,
   so only the cold passes, whose reads miss, give latency samples. *)
let client_cost rng = 0.5e-6 +. (Rng.float rng *. 1e-6)

(* Lease validity: entries filled in a cold pass are still leased in the
   warm pass; expiry itself is pinned by the repository's unit tests. *)
let lease_ttl = 120.

let zk_ok label = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "lease-reads %s: %s" label (Zk.Zerror.to_string e))

(* lease-reads: 3 voters + 2 observers, [sessions] sessions each with
   its own lease-mode cache. Setup populates the namespace; the timed
   run is stat-cold / stat-warm / readdir-cold / readdir-warm passes
   with a burst of [writers] concurrent writers between each pair; a
   warm pass sweeps its directory twice. Read latencies come from the
   cold passes (every read misses its empty cache and goes to the
   service); warm reads count towards throughput and success only. The
   first [recorded] sessions and every writer go through [Zk.History]. *)
let lease_reads ~seed ~traced () =
  let sessions = 1_000 and writers = 8 and recorded = 32 in
  let failures = ref [] in
  let fail cond msg = if cond then failures := msg :: !failures in
  let h0 = host_now () in
  let engine = Engine.create () in
  let trace = Obs.Trace.create () in
  if traced then Obs.Trace.enable trace;
  let cfg =
    { (Ensemble.default_config ~servers:3) with
      Ensemble.observers = 2;
      seed;
      max_batch = 16;
      lease_ttl }
  in
  let ensemble = Ensemble.start ~trace engine cfg in
  let coord = { ensembles = [| ensemble |]; router = None } in
  let history = Zk.History.create engine in
  let rec_ = Spans.recorder () in
  let store = if traced then Some (Spans.store engine) else None in
  let below ctx h = if traced then Spans.zk_child ctx h else h in
  (* writers: recorded, uncached, pinned to the leader's server *)
  let writer_ctx = Array.init writers (fun _ -> Spans.ctx ?store rec_) in
  let writer_h = Array.make writers None in
  Process.spawn engine (fun () ->
      Array.iteri
        (fun k ctx ->
          writer_h.(k) <-
            Some
              (Zk.History.wrap history ~client:k
                 (below ctx (Ensemble.session ensemble ~server:0 ()))))
        writer_ctx;
      (* plain creates: the checker models every register as absent
         until a recorded create *)
      let w = Option.get writer_h.(0) in
      for d = 0 to n_dirs - 1 do
        ignore (zk_ok "setup" (w.Zc.create (dir_path d) ~data:""));
        for f = 0 to n_files - 1 do
          ignore (zk_ok "setup" (w.Zc.create (file_path d f) ~data:"v0"))
        done
      done);
  Engine.run engine;
  let h1 = host_now () in
  let ev0 = Engine.executed_events engine in
  let mw0, mc0 = gc_words () in
  let rng = Rng.create ~seed:(Int64.add seed 0x1ea5eL) in
  let dir_of = Array.init n_dirs (fun d -> d) in
  Rng.shuffle rng dir_of;
  let caches = Array.make sessions None in
  let gates = Array.init sessions (fun _ -> Simkit.Mailbox.create ()) in
  let finished = Simkit.Mailbox.create () in
  let bad_listings = ref 0 in
  (* think outside the op, client CPU inside it *)
  let session_op ?sample ctx cls f =
    Process.sleep (Rng.exponential rng ~mean:think_mean);
    Spans.op ?sample ctx cls (fun () ->
        Process.sleep (client_cost rng);
        f ())
  in
  for i = 0 to sessions - 1 do
    Process.spawn engine (fun () ->
        let ctx = Spans.ctx ?store rec_ in
        let cache =
          Dufs.Cache.wrap ~capacity:64 ~coherence:Dufs.Cache.Leases
            ~now:(fun () -> Engine.now engine)
            (below ctx (Ensemble.session ensemble ()))
        in
        caches.(i) <- Some cache;
        let h =
          if i < recorded then
            Zk.History.wrap history ~client:(writers + i) (Dufs.Cache.handle cache)
          else Dufs.Cache.handle cache
        in
        let d = dir_of.(i mod n_dirs) in
        let stat_pass ~cold () =
          for f = 0 to n_files - 1 do
            ignore
              (zk_ok "stat"
                 (session_op ~sample:cold ctx Spans.Stat (fun () -> h.Zc.get (file_path d f))))
          done
        in
        let readdir_pass ~cold () =
          let listing =
            zk_ok "readdir"
              (session_op ~sample:cold ctx Spans.Readdir (fun () ->
                   h.Zc.children_with_data (dir_path d)))
          in
          if List.length listing <> n_files then incr bad_listings
        in
        let twice pass () = pass (); pass () in
        List.iter
          (fun pass ->
            Simkit.Mailbox.recv gates.(i);
            pass ();
            Simkit.Mailbox.send finished ())
          [ stat_pass ~cold:true; twice (stat_pass ~cold:false);
            readdir_pass ~cold:true; twice (readdir_pass ~cold:false) ])
  done;
  let read_s = ref 0. and write_s = ref 0. and write_ops = ref 0 in
  Process.spawn engine (fun () ->
      let release_and_wait () =
        let t0 = Engine.now engine in
        Array.iter (fun g -> Simkit.Mailbox.send g ()) gates;
        for _ = 1 to sessions do
          Simkit.Mailbox.recv finished
        done;
        read_s := !read_s +. (Engine.now engine -. t0)
      in
      (* every file of every 8th directory changes: the leases of every
         session reading it are revoked *)
      let burst data =
        let t0 = Engine.now engine in
        let done_ = Simkit.Mailbox.create () in
        for k = 0 to writers - 1 do
          Process.spawn engine (fun () ->
              let w = Option.get writer_h.(k) in
              let d = ref (8 * k) in
              while !d < n_dirs do
                for f = 0 to n_files - 1 do
                  ignore
                    (zk_ok "burst"
                       (session_op writer_ctx.(k) Spans.Set (fun () ->
                            w.Zc.set (file_path !d f) ~data)));
                  incr write_ops
                done;
                d := !d + (8 * writers)
              done;
              Simkit.Mailbox.send done_ ())
        done;
        for _ = 1 to writers do
          Simkit.Mailbox.recv done_
        done;
        write_s := !write_s +. (Engine.now engine -. t0)
      in
      release_and_wait ();
      burst "v1";
      release_and_wait ();
      release_and_wait ();
      burst "v2";
      release_and_wait ());
  Engine.run engine;
  let h2 = host_now () in
  let mw1, mc1 = gc_words () in
  let events = Engine.executed_events engine - ev0 in
  fail (!bad_listings > 0)
    (Printf.sprintf "%d listings did not have %d entries" !bad_listings n_files);
  let znodes =
    match Ensemble.leader_id ensemble with
    | Some id -> Zk.Ztree.node_count (Ensemble.tree_of ensemble id)
    | None -> -1
  in
  fail (znodes <> 1 + n_dirs + (n_dirs * n_files))
    (Printf.sprintf "census: %d znodes, expected %d" znodes (1 + n_dirs + (n_dirs * n_files)));
  fail (rec_.Spans.failed > 0) (Printf.sprintf "%d ops failed" rec_.Spans.failed);
  let hc0 = host_now () in
  let violations = Zk.History.check history in
  let check_s = host_now () -. hc0 in
  fail (violations <> []) (Printf.sprintf "%d linearizability violations" (List.length violations));
  let reads = sessions * ((3 * n_files) + 3) in
  let virt =
    virt_e2e rec_ ~attempted:rec_.Spans.attempted ~failed:rec_.Spans.failed
      ~write_ops:!write_ops ~write_s:!write_s ~read_ops:reads ~read_s:!read_s
  in
  let sum f =
    Array.fold_left (fun acc c -> match c with Some c -> acc + f c | None -> acc) 0 caches
  in
  let ops = rec_.Spans.attempted in
  let span_layers, (above, under) =
    match store with
    | None -> ([], (0, 0))
    | Some s -> span_metrics s ~dufs:false ~failures
  in
  let layers =
    span_layers
    @ counter_metrics coord ~trace ~mounts:[||] ~virt_wall:0. ~ops ~events
    @ [ ("dufs.cache.hit_ratio", "ratio",
         if above = 0 then 0. else 1. -. (float_of_int under /. float_of_int above));
        ("dufs.cache.calls_above", "count", float_of_int above);
        ("dufs.cache.invalidations", "count", float_of_int (sum Dufs.Cache.invalidations));
        ("dufs.cache.lease_expired_hits", "count", float_of_int (sum Dufs.Cache.lease_expired_hits));
        ("host.minor_words_per_op", "words/op", (mw1 -. mw0) /. float_of_int (max 1 ops));
        ("host.major_collections", "count", float_of_int (mc1 - mc0));
        ("zk.history.ops_checked", "count", float_of_int (Zk.History.checked_ops history));
        ("zk.history.check_s", "s", check_s);
        ("outage.recovery_ms", "ms", 0.) ]
  in
  if traced then check_quorum_tiling trace ~failures;
  { setup_s = h1 -. h0;
    run_s = h2 -. h1;
    events;
    virt;
    attempted = rec_.Spans.attempted;
    failed = rec_.Spans.failed;
    layers;
    failures = List.rev !failures;
    store }
