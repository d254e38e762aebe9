module Engine = Simkit.Engine
module Process = Simkit.Process
module Vfs = Fuselike.Vfs

type backend_kind = Lustre | Pvfs

type dufs_spec = {
  zk_servers : int;
  backends : int;
  backend_kind : backend_kind;
  shards : int;
  max_batch : int;
  cached : bool;
}

let dufs ?(shards = 1) ?(max_batch = 1) ?(cached = false) ~zk_servers ~backends
    backend_kind =
  { zk_servers; backends; backend_kind; shards; max_batch; cached }

type system =
  | Basic_lustre
  | Basic_pvfs
  | Lustre_cmd of int
  | Dufs of dufs_spec

let system_label = function
  | Basic_lustre -> "Basic Lustre"
  | Basic_pvfs -> "Basic PVFS"
  | Lustre_cmd mds -> Printf.sprintf "Lustre CMD %d MDS" mds
  | Dufs { zk_servers; backends; backend_kind; shards; max_batch; cached } ->
    let kind = match backend_kind with Lustre -> "Lustre" | Pvfs -> "PVFS" in
    let features =
      (if cached then "+cache" else "")
      ^
      if shards > 1 then
        Printf.sprintf "+shards%dx%d+batch%d" shards zk_servers max_batch
      else if max_batch > 1 then Printf.sprintf "+batch%d" max_batch
      else ""
    in
    if shards > 1 then Printf.sprintf "DUFS%s %dx%s" features backends kind
    else Printf.sprintf "DUFS%s %dx%s/%dzk" features backends kind zk_servers

let zk_config ?(max_batch = 1) ~servers ~procs () =
  { (Zk.Ensemble.default_config ~servers) with
    Zk.Ensemble.max_batch;
    read_service = Pfs.Costs.Zookeeper.read_service;
    write_service = Pfs.Costs.Zookeeper.write_service;
    delete_service = Pfs.Costs.Zookeeper.delete_service;
    set_service = Pfs.Costs.Zookeeper.set_service;
    persist = Pfs.Costs.Zookeeper.persist;
    rpc_cpu = Pfs.Costs.Zookeeper.rpc_cpu;
    follower_apply = Pfs.Costs.Zookeeper.follower_apply;
    net_latency = Pfs.Costs.gige_latency;
    load_factor =
      Pfs.Costs.colocated_load_factor ~procs ~nodes:Pfs.Costs.client_nodes
        ~cores:Pfs.Costs.cores_per_node }

(* Formatted back-end mounts: a per-proc client factory plus each
   back-end metadata station's (wait, hold) time summaries. *)
let build_backends engine ~spec =
  let { backends; backend_kind; _ } = spec in
  let layout = Dufs.Physical.default_layout in
  match backend_kind with
    | Lustre ->
      let mounts =
        Array.init backends (fun _ ->
            Pfs.Lustre_sim.create engine ~config:(Pfs.Lustre_sim.backend_config ()) ())
      in
      Array.iter
        (fun mount ->
          match Dufs.Physical.format layout (Pfs.Lustre_sim.local_ops mount) with
          | Ok () -> ()
          | Error e -> failwith (Fuselike.Errno.to_string e))
        mounts;
      ( (fun proc ->
          Array.mapi
            (fun i mount ->
              Pfs.Lustre_sim.client mount ~client_id:((proc * backends) + i))
            mounts),
        Array.map
          (fun mount ->
            (Pfs.Lustre_sim.mds_wait_summary mount,
             Pfs.Lustre_sim.mds_hold_summary mount))
          mounts )
    | Pvfs ->
      let mounts =
        Array.init backends (fun _ ->
            Pfs.Pvfs_sim.create engine ~config:(Pfs.Pvfs_sim.backend_config ()) ())
      in
      Array.iter
        (fun mount ->
          match Dufs.Physical.format layout (Pfs.Pvfs_sim.local_ops mount) with
          | Ok () -> ()
          | Error e -> failwith (Fuselike.Errno.to_string e))
        mounts;
      ( (fun proc ->
          Array.mapi
            (fun i mount -> Pfs.Pvfs_sim.client mount ~client_id:((proc * backends) + i))
            mounts),
        Array.concat
          (Array.to_list
             (Array.map
                (fun mount ->
                  Array.map2
                    (fun w h -> (w, h))
                    (Pfs.Pvfs_sim.wait_summaries mount)
                    (Pfs.Pvfs_sim.hold_summaries mount))
                mounts)) )

(* Per-proc VFS ops over a coordination session factory. *)
let dufs_ops_for_proc ~trace engine ~session_of ~backend_clients ~cached proc =
  let session : Zk.Zk_client.handle = session_of () in
  let coord =
    if cached then Dufs.Cache.handle (Dufs.Cache.wrap session) else session
  in
  let client =
    Dufs.Client.mount ~coord ~backends:(backend_clients proc)
      ~client_id:(Int64.of_int (proc + 1))
      ~layout:Dufs.Physical.default_layout
      ~clock:(fun () -> Engine.now engine)
      ~delay:Process.sleep
      ~overhead:(Pfs.Costs.fuse_crossing +. Pfs.Costs.dufs_overhead)
      ~trace
      ()
  in
  Dufs.Client.ops client

(* Per-process operation tables for a native (non-DUFS) system. *)
let native_clients engine = function
  | Basic_lustre ->
    let fs = Pfs.Lustre_sim.create engine () in
    fun proc -> Pfs.Lustre_sim.client fs ~client_id:proc
  | Basic_pvfs ->
    let fs = Pfs.Pvfs_sim.create engine () in
    fun proc -> Pfs.Pvfs_sim.client fs ~client_id:proc
  | Lustre_cmd mds ->
    let fs =
      Pfs.Cmd_sim.create engine ~config:(Pfs.Cmd_sim.default_config ~mds_count:mds) ()
    in
    fun proc -> Pfs.Cmd_sim.client fs ~client_id:proc
  | Dufs _ -> invalid_arg "Systems.native_clients: DUFS runs through Systems.run"

(* {2 The DUFS run harness}

   One mdtest run over one DUFS stack: a {!Zk.Shard_router} deployment
   (a single ensemble is the 1-shard case) plus formatted back-end
   mounts, with each optional instrument switched on by the spec. *)

type run_spec = {
  workload : Mdtest.Workload.config;
  dufs : dufs_spec;
  config_adjust : Zk.Ensemble.config -> Zk.Ensemble.config;
  plan : Faults.Faultplan.t;
  traced : bool;
  history_clients : int;
  reshard_to : int option;
  side_load : (Engine.t -> Zk.Shard_router.t -> Zk.History.t -> unit) option;
}

let run_spec ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(unique = false)
    ?(config_adjust = Fun.id) ?(plan = []) ?(traced = false)
    ?(history_clients = 0) ?reshard_to ?side_load dufs ~procs =
  { workload =
      Mdtest.Workload.config ~dirs_per_proc ~files_per_proc
        ~unique_working_dirs:unique ~procs ();
    dufs; config_adjust; plan; traced; history_clients; reshard_to; side_load }

type run_result = {
  results : Mdtest.Runner.results;
  engine : Engine.t;
  router : Zk.Shard_router.t;
  trace : Obs.Trace.t;
  backend_stations : (Simkit.Stat.Summary.t * Simkit.Stat.Summary.t) array;
  per_shard_znodes : int array;
  live_stubs_at_stat : int;
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  faults_fired : int;
  history : Zk.History.t;
  violations : Zk.History.violation list;
  reshard : Zk.Reshard.stats option;
  reshard_window : float;
}

let run spec =
  let cfg = spec.workload and dufs = spec.dufs in
  let procs = cfg.Mdtest.Workload.procs in
  let engine = Engine.create () in
  let trace =
    if spec.traced then begin
      let t = Obs.Trace.create () in
      Obs.Trace.enable t;
      t
    end
    else Obs.Trace.null
  in
  let config =
    spec.config_adjust
      (zk_config ~max_batch:dufs.max_batch ~servers:dufs.zk_servers ~procs ())
  in
  let router = Zk.Shard_router.start ~trace engine ~shards:dufs.shards config in
  let backend_clients, backend_stations = build_backends engine ~spec:dufs in
  let history = Zk.History.create engine in
  let armed =
    Faults.Faultplan.arm_shards engine (Zk.Shard_router.ensembles router)
      spec.plan
  in
  (* one session per process (dufs_ops_for_proc calls this once per
     proc); the first [history_clients] of them record *)
  let next_client = ref 0 in
  let session_of () =
    let s = Zk.Shard_router.session router () in
    let id = !next_client in
    incr next_client;
    if id < spec.history_clients then Zk.History.wrap history ~client:id s
    else s
  in
  let ops_for_proc =
    dufs_ops_for_proc ~trace engine ~session_of ~backend_clients
      ~cached:dufs.cached
  in
  Option.iter (fun load -> load engine router history) spec.side_load;
  (* The reshard controller fires at the file-create barrier, so keys
     migrate under full write traffic. The census is sampled at the
     file-stat barrier — every create committed, no removal begun — after
     the controller finished: the logical population must then equal
     zroot + skeleton + files exactly (a surplus is a doubled apply or a
     leaked stub, a deficit a lost write). *)
  let reshard_done = ref true and reshard = ref None in
  let t0 = ref 0. and t1 = ref 0. in
  let per_shard_znodes = ref [||] and live_stubs_at_stat = ref 0 in
  let on_phase phase =
    (match (phase, spec.reshard_to) with
     | Mdtest.Runner.File_create, Some to_shards when to_shards <> dufs.shards ->
       reshard_done := false;
       Process.spawn engine (fun () ->
           t0 := Engine.now engine;
           let st =
             if to_shards > dufs.shards then Zk.Reshard.split router ~to_shards ()
             else Zk.Reshard.merge router ~to_shards ()
           in
           t1 := Engine.now engine;
           reshard := Some st;
           reshard_done := true)
     | _ -> ());
    if phase = Mdtest.Runner.File_stat then begin
      while not !reshard_done do
        Process.sleep 0.005
      done;
      per_shard_znodes := Zk.Shard_router.node_counts router;
      live_stubs_at_stat :=
        Zk.Shard_router.live_stubs (Zk.Shard_router.stats router)
    end;
    Faults.Faultplan.notify_phase armed (Mdtest.Runner.phase_to_string phase)
  in
  let results = Mdtest.Runner.run ~on_phase engine cfg ~ops_for_proc in
  if spec.traced then Zk.Shard_router.publish router (Obs.Trace.metrics trace);
  let violations =
    if Zk.History.recorded history > 0 then
      Zk.History.check ~max_states:2_000_000 history
    else []
  in
  { results;
    engine;
    router;
    trace;
    backend_stations;
    per_shard_znodes = !per_shard_znodes;
    live_stubs_at_stat = !live_stubs_at_stat;
    logical_znodes_at_stat =
      Array.fold_left (fun acc n -> acc + (n - 1)) 0 !per_shard_znodes
      - !live_stubs_at_stat;
    expected_logical_znodes =
      1 + List.length (Mdtest.Workload.skeleton cfg)
      + (procs * cfg.Mdtest.Workload.files_per_proc);
    faults_fired = Faults.Faultplan.fired armed;
    history;
    violations;
    reshard = !reshard;
    reshard_window = !t1 -. !t0 }

let cache : (string, Mdtest.Runner.results) Hashtbl.t = Hashtbl.create 64
let reset_cache () = Hashtbl.reset cache

let mdtest ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(unique = false) system ~procs
    () =
  let key =
    Printf.sprintf "%s|%d|%d|%d|%b" (system_label system) procs dirs_per_proc
      files_per_proc unique
  in
  match Hashtbl.find_opt cache key with
  | Some results -> results
  | None ->
    let results =
      match system with
      | Dufs dufs ->
        (run (run_spec ~dirs_per_proc ~files_per_proc ~unique dufs ~procs)).results
      | Basic_lustre | Basic_pvfs | Lustre_cmd _ ->
        let engine = Engine.create () in
        let ops_for_proc = native_clients engine system in
        Mdtest.Runner.run engine
          (Mdtest.Workload.config ~dirs_per_proc ~files_per_proc
             ~unique_working_dirs:unique ~procs ())
          ~ops_for_proc
    in
    Hashtbl.replace cache key results;
    results

(* {2 Register clients and probe writes (chaos and durability runs)}

   Register clients speak to the coordination layer directly through a
   {!Zk.History} recorder, so the oracle can check every op they issue. *)

type reg_op = Create | Set | Delete | Get | Exists | Seq_create of string

(* Each op targets register [reg_dir k ^ "/r"] for a uniform [k] below
   [registers]; [mix] is a cumulative percentage table: the first entry
   whose bound exceeds a uniform draw in [0, 100) is the op. *)
let register_client ~router ~hist ~client ~rng ~think ~reg_dir ~registers ~mix
    ~more ~ok ~err =
  let session () =
    Zk.History.wrap hist ~client (Zk.Shard_router.session router ())
  in
  let h = ref (session ()) in
  let n = ref 0 in
  let fresh_data () =
    incr n;
    Printf.sprintf "%d.%d" client !n
  in
  (* let the setup commits land before the first register op *)
  Process.sleep (0.2 +. Simkit.Rng.exponential rng ~mean:think);
  while more () do
    let reg = reg_dir (Simkit.Rng.int rng registers) ^ "/r" in
    let x = Simkit.Rng.int rng 100 in
    let outcome =
      match snd (List.find (fun (bound, _) -> x < bound) mix) with
      | Create -> Result.map ignore ((!h).Zk.Zk_client.create reg ~data:(fresh_data ()))
      | Set -> (!h).Zk.Zk_client.set reg ~data:(fresh_data ())
      | Delete -> (!h).Zk.Zk_client.delete reg
      | Get -> Result.map ignore ((!h).Zk.Zk_client.get reg)
      | Exists -> Result.map ignore ((!h).Zk.Zk_client.exists reg)
      | Seq_create prefix ->
        Result.map ignore
          ((!h).Zk.Zk_client.create ~sequential:true prefix ~data:(fresh_data ()))
    in
    (match outcome with
     | Ok ()
     | Error
         (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS | Zk.Zerror.ZNOTEMPTY
         | Zk.Zerror.ZBADVERSION) ->
       (* semantic outcome of racing clients: the service answered *)
       incr ok
     | Error Zk.Zerror.ZSESSIONEXPIRED ->
       incr err;
       h := session ();
       Process.sleep (Simkit.Rng.exponential rng ~mean:0.2)
     | Error _ ->
       incr err;
       Process.sleep (Simkit.Rng.exponential rng ~mean:0.3));
    Process.sleep (Simkit.Rng.exponential rng ~mean:think)
  done;
  (!h).Zk.Zk_client.close ()

(* Setup process: create [dirs] before any client op or fault. *)
let spawn_mkdirs engine router ~what dirs =
  Process.spawn engine (fun () ->
      let s = Zk.Shard_router.session router () in
      List.iter
        (fun p ->
          match s.Zk.Zk_client.create p ~data:"" with
          | Ok _ -> ()
          | Error e ->
            failwith (what ^ " setup " ^ p ^ ": " ^ Zk.Zerror.to_string e))
        dirs)

(* Commit one fresh create at [path n], retrying every 50 ms (reopening
   the session when it expired) with [n] counting attempts in [attempt],
   at most [max_attempts] of them. [true] once a create committed. *)
let probe_write router ~session ~attempt ?(max_attempts = max_int) path =
  let rec go () =
    incr attempt;
    if !attempt > max_attempts then false
    else
      match (!session).Zk.Zk_client.create (path !attempt) ~data:"" with
      | Ok _ -> true
      | Error e ->
        if e = Zk.Zerror.ZSESSIONEXPIRED then
          session := Zk.Shard_router.session router ();
        Process.sleep 0.05;
        go ()
  in
  go ()

(* {2 Chaos: randomized network-fault schedules with a linearizability
      oracle}

   Clients speak to the coordination layer directly (no PFS back-ends —
   the oracle checks the quorum, not the data path) while a seeded
   {!Faults.Faultplan.chaos} schedule partitions, drops, delays,
   duplicates and crashes underneath them. Register paths are
   one-per-directory so a sharded deployment spreads them across shards
   (children co-locate with their parent). After the closing heal a
   probe measures how long each shard takes to commit a write again;
   after the run the Wing–Gong checker searches the recorded history. *)

type chaos_run = {
  seed : int64;
  shards : int;
  recorded : int;
  checked : int;
  undetermined_ops : int;
  violations : Zk.History.violation list;
  digest : string;
  recovery_s : float;  (** heal → every probed shard committed; nan = never *)
  faults_fired : int;
  ops_ok : int;        (** client ops with a determined outcome *)
  ops_err : int;       (** transport-failed client ops (undetermined) *)
  dedup_hits : int;
  dedup_evictions : int;
  sessions_expired : int;
  writes_failed_fast : int;
  stale_reads_served : int;
  writes_committed : int;
}

let chaos_reg_dir k = Printf.sprintf "/d%d" k
let chaos_seq_dir = "/dseq"

let chaos_mix =
  [ (25, Create); (45, Set); (60, Delete); (80, Get); (90, Exists);
    (100, Seq_create (chaos_seq_dir ^ "/s-")) ]

let chaos_run ?(servers = 5) ?(shards = 1) ?(clients = 8) ?(registers = 6)
    ?(heal_at = 15.) ?(post_heal = 10.) ?(events = 12) ?(think = 0.05)
    ?(unsafe_no_dedup = false) ?(config_adjust = fun c -> c) ?plan ~seed () =
  let engine = Engine.create () in
  let config =
    config_adjust
      { (zk_config ~servers ~procs:clients ()) with
        Zk.Ensemble.seed;
        request_timeout = 0.5;
        retry_backoff = 0.05;
        retry_backoff_cap = 1.0;
        session_timeout = 6.0;
        stale_read_after = 1.0;
        serve_stale_reads = true;
        fail_fast_after = 2.0;
        unsafe_no_dedup }
  in
  let router = Zk.Shard_router.start engine ~shards config in
  let hist = Zk.History.create engine in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Faults.Faultplan.chaos ~seed:(Int64.add seed 101L) ~servers ~shards
        ~start:1.0 ~heal_at ~events ()
  in
  let armed =
    Faults.Faultplan.arm_shards engine (Zk.Shard_router.ensembles router) plan
  in
  let stop = heal_at +. post_heal in
  let ops_ok = ref 0 and ops_err = ref 0 in
  (* the register directories, so each register's children land on that
     directory's shard; committed before the chaos window opens *)
  spawn_mkdirs engine router ~what:"chaos"
    (List.init registers chaos_reg_dir @ [ chaos_seq_dir ]);
  for i = 0 to clients - 1 do
    let rng =
      Simkit.Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 7919)))
    in
    Process.spawn engine (fun () ->
        register_client ~router ~hist ~client:i ~rng ~think
          ~reg_dir:chaos_reg_dir ~registers ~mix:chaos_mix
          ~more:(fun () -> Engine.now engine < stop)
          ~ok:ops_ok ~err:ops_err)
  done;
  (* Recovery probe: one representative register directory per shard;
     recovery is the time from heal until every one of them has
     committed a fresh write. *)
  let recovery = ref Float.nan in
  Engine.schedule engine ~delay:heal_at (fun () ->
      Process.spawn engine (fun () ->
          let by_shard = Hashtbl.create 8 in
          for k = registers - 1 downto 0 do
            let dir = chaos_reg_dir k in
            Hashtbl.replace by_shard
              (Zk.Shard_router.home_shard router (dir ^ "/r"))
              dir
          done;
          let dirs =
            List.sort compare
              (Hashtbl.fold (fun _ dir acc -> dir :: acc) by_shard [])
          in
          let session = ref (Zk.Shard_router.session router ()) in
          let attempt = ref 0 in
          List.iter
            (fun dir ->
              ignore
                (probe_write router ~session ~attempt
                   (Printf.sprintf "%s/probe%d" dir)))
            dirs;
          recovery := Engine.now engine -. heal_at));
  Engine.run engine;
  let violations = Zk.History.check ~max_states:2_000_000 hist in
  let sum f =
    Array.fold_left
      (fun acc e -> acc + f e)
      0
      (Zk.Shard_router.ensembles router)
  in
  { seed;
    shards;
    recorded = Zk.History.recorded hist;
    checked = Zk.History.checked_ops hist;
    undetermined_ops = Zk.History.undetermined hist;
    violations;
    digest = Zk.History.digest hist;
    recovery_s = !recovery;
    faults_fired = Faults.Faultplan.fired armed;
    ops_ok = !ops_ok;
    ops_err = !ops_err;
    dedup_hits = sum Zk.Ensemble.dedup_hits;
    dedup_evictions = sum Zk.Ensemble.dedup_evictions;
    sessions_expired = sum Zk.Ensemble.sessions_expired;
    writes_failed_fast = sum Zk.Ensemble.writes_failed_fast;
    stale_reads_served = sum Zk.Ensemble.stale_reads_served;
    writes_committed = sum Zk.Ensemble.writes_committed }

(* {2 Durability: power-failure and storage-corruption schedules with a
      durability oracle}

   A mdtest runs over the full DUFS stack while the fault plan
   power-fails the whole coordination ensemble (optionally tearing,
   bit-rotting or snapshot-corrupting one member's disk during the
   outage). Alongside the mdtest load, a few register clients issue
   {e unconditioned} writes with unique data values through the run's
   {!Zk.History} recorder — mdtest's own rmdir is version-conditioned
   and therefore outside the recorded-register model, so the audit runs
   over the overlay registers the oracle can actually reason about.
   After the run (engine fully drained: every restart has recovered and
   re-elected), a probe write confirms the service is live again, and
   the durability oracle compares the leader's recovered tree against
   the history: acked writes must have survived the power failure,
   unacked ones may be lost but must not resurrect inconsistently. *)

type durability_run = {
  d_seed : int64;
  d_label : string;
  d_run : run_result;
  d_durability_violations : Zk.History.violation list;
  d_recovered : bool;      (* post-outage probe write committed *)
  d_trees_agree : bool;    (* all live replicas fingerprint-equal *)
  d_reg_ok : int;
  d_reg_err : int;
}

let dur_reg_dir k = Printf.sprintf "/dur%d" k
let durability_mix = [ (40, Create); (70, Set); (85, Delete); (100, Get) ]

let durability_run ?(servers = 5) ?(procs = 64) ?(reg_clients = 8)
    ?(registers = 8) ?(ops_per_client = 50) ?(dirs_per_proc = 12)
    ?(files_per_proc = 12) ?(think = 0.02) ~plan ~label ~seed () =
  let reg_ok = ref 0 and reg_err = ref 0 in
  let side_load engine router hist =
    spawn_mkdirs engine router ~what:"durability"
      (List.init registers dur_reg_dir);
    for i = 0 to reg_clients - 1 do
      let rng =
        Simkit.Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 6007)))
      in
      let left = ref ops_per_client in
      Process.spawn engine (fun () ->
          register_client ~router ~hist ~client:i ~rng ~think
            ~reg_dir:dur_reg_dir ~registers ~mix:durability_mix
            ~more:(fun () ->
              decr left;
              !left >= 0)
            ~ok:reg_ok ~err:reg_err)
    done
  in
  let config_adjust c =
    { c with
      Zk.Ensemble.seed;
      request_timeout = 0.5;
      retry_backoff = 0.05;
      retry_backoff_cap = 1.0;
      session_timeout = 8.0;
      fail_fast_after = 2.0;
      (* low cadence so schedules cross several snapshots: corrupt-snap
         has something to corrupt and log pruning actually happens *)
      snapshot_every = 384 }
  in
  let r =
    run
      (run_spec ~dirs_per_proc ~files_per_proc ~config_adjust ~plan ~side_load
         (dufs ~zk_servers:servers ~backends:4 Lustre)
         ~procs)
  in
  (* The run drained with every restart recovered; prove the service is
     actually live again by committing one more write. *)
  let recovered = ref false in
  Process.spawn r.engine (fun () ->
      recovered :=
        probe_write r.router
          ~session:(ref (Zk.Shard_router.session r.router ()))
          ~attempt:(ref 0) ~max_attempts:200
          (Printf.sprintf "/dur-probe%d"));
  Engine.run r.engine;
  let ensemble = (Zk.Shard_router.ensembles r.router).(0) in
  let lookup path =
    match Zk.Ensemble.leader_id ensemble with
    | None -> None
    | Some id -> (
      match Zk.Ztree.get (Zk.Ensemble.tree_of ensemble id) path with
      | Ok (data, _) -> Some data
      | Error _ -> None)
  in
  let trees_agree =
    match Zk.Ensemble.alive_ids ensemble with
    | [] -> false
    | id0 :: rest ->
      let f0 = Zk.Ztree.fingerprint (Zk.Ensemble.tree_of ensemble id0) in
      List.for_all
        (fun id -> Zk.Ztree.fingerprint (Zk.Ensemble.tree_of ensemble id) = f0)
        rest
  in
  { d_seed = seed;
    d_label = label;
    d_run = r;
    d_durability_violations = Zk.History.durability_audit r.history ~lookup;
    d_recovered = !recovered;
    d_trees_agree = trees_agree;
    d_reg_ok = !reg_ok;
    d_reg_err = !reg_err }

let zk_raw ~servers ~procs ?(items = 80) () =
  let engine = Engine.create () in
  let ensemble = Zk.Ensemble.start engine (zk_config ~servers ~procs ()) in
  let sessions = Array.init procs (fun _ -> Zk.Ensemble.session ensemble ()) in
  (* setup: a parent node for all items *)
  Process.spawn engine (fun () ->
      match sessions.(0).Zk.Zk_client.create "/f7" ~data:"" with
      | Ok _ -> ()
      | Error e -> failwith (Zk.Zerror.to_string e));
  Engine.run engine;
  let path ~proc ~item = Printf.sprintf "/f7/n%d_%d" proc item in
  let must label = function
    | Ok _ -> ()
    | Error e -> failwith (label ^ ": " ^ Zk.Zerror.to_string e)
  in
  let create_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "create" (sessions.(proc).Zk.Zk_client.create (path ~proc ~item) ~data:"x"))
  in
  let get_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "get" (sessions.(proc).Zk.Zk_client.get (path ~proc ~item)))
  in
  let set_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "set" (sessions.(proc).Zk.Zk_client.set (path ~proc ~item) ~data:"y"))
  in
  let delete_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "delete" (sessions.(proc).Zk.Zk_client.delete (path ~proc ~item)))
  in
  [ ("zoo_create", create_rate);
    ("zoo_get", get_rate);
    ("zoo_set", set_rate);
    ("zoo_delete", delete_rate) ]
