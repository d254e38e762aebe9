(** System configurations under test, mirroring §V: native Lustre, native
    PVFS2, and DUFS over N back-end mounts of either, with a ZooKeeper
    ensemble co-located with the client nodes. *)

type backend_kind = Lustre | Pvfs

type dufs_spec = {
  zk_servers : int;      (** coordination servers {e per shard} *)
  backends : int;
  backend_kind : backend_kind;
  shards : int;          (** ZAB ensembles behind the shard router *)
  max_batch : int;       (** ZAB group commit; [1] = one txn per round *)
  cached : bool;         (** client-side metadata cache ({!Dufs.Cache}) *)
}

(** A DUFS deployment; [shards] and [max_batch] default to [1], [cached]
    to [false] — the paper's configuration. *)
val dufs :
  ?shards:int -> ?max_batch:int -> ?cached:bool -> zk_servers:int ->
  backends:int -> backend_kind -> dufs_spec

type system =
  | Basic_lustre
  | Basic_pvfs
  | Lustre_cmd of int
      (** hypothetical Lustre Clustered MDS with n active servers (§VI) *)
  | Dufs of dufs_spec

val system_label : system -> string

(** [mdtest system ~procs ()] runs the six-phase mdtest workload on a
    fresh simulation of [system] and returns per-phase throughput.
    Results are memoized on (system, procs, items, unique). *)
val mdtest :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?unique:bool ->
  system ->
  procs:int ->
  unit ->
  Mdtest.Runner.results

(** {2 The DUFS run harness}

    One mdtest run over DUFS: a {!Zk.Shard_router} deployment of
    [dufs.shards] ensembles (a single ensemble is the 1-shard router,
    bit-identical to a directly started {!Zk.Ensemble}) plus
    [dufs.backends] formatted back-end mounts. Every instrument is a
    field of the spec. Not memoized. *)

type run_spec = {
  workload : Mdtest.Workload.config;
  dufs : dufs_spec;
  config_adjust : Zk.Ensemble.config -> Zk.Ensemble.config;
      (** applied to {!zk_config} (tests shrink timeouts; the pipeline
          bench opens the proposal window) *)
  plan : Faults.Faultplan.t;
      (** armed against the shards; [[]] is the fault-free baseline. Its
          phase anchors follow mdtest's phases. *)
  traced : bool;
      (** span trace through the quorum phases and every client's root
          spans; tracing never sleeps or schedules, so throughput equals
          the untraced run's *)
  history_clients : int;
      (** the first [n] client sessions record through {!Zk.History},
          below the DUFS client *)
  reshard_to : int option;
      (** a controller spawned at the file-create barrier splits (or
          merges) the deployment to this many shards under full write
          traffic *)
  side_load : (Simkit.Engine.t -> Zk.Shard_router.t -> Zk.History.t -> unit) option;
      (** spawns extra processes beside mdtest, after the stack is built
          and before the first phase *)
}

(** Defaults: 60 dirs and 60 files per proc, shared working dirs, no
    adjustment, no faults, untraced, no recording, no reshard. *)
val run_spec :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?unique:bool ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  ?plan:Faults.Faultplan.t ->
  ?traced:bool ->
  ?history_clients:int ->
  ?reshard_to:int ->
  ?side_load:(Simkit.Engine.t -> Zk.Shard_router.t -> Zk.History.t -> unit) ->
  dufs_spec ->
  procs:int ->
  run_spec

(** The census fields are sampled at the file-stat barrier (every file
    create committed, no removal begun, any reshard finished):
    per-shard raw node counts, the router's live stub count, and the
    logical population [sum (counts - 1) - live_stubs], which must equal
    [expected_logical_znodes] (zroot + skeleton + files) exactly — a
    surplus is a doubled apply or leaked stub, a deficit a lost write.
    Counters (writes committed, dedup hits, per shard) are read from
    [router]. *)
type run_result = {
  results : Mdtest.Runner.results;
  engine : Simkit.Engine.t;     (** drained; callers may spawn more *)
  router : Zk.Shard_router.t;
  trace : Obs.Trace.t;
      (** [dufs.<op>] client root spans, [zk.<op>.<phase>] quorum
          phases, leader gauges and the router's published per-shard
          gauges; {!Obs.Trace.null} when untraced *)
  backend_stations : (Simkit.Stat.Summary.t * Simkit.Stat.Summary.t) array;
      (** per back-end metadata station: (handler-queue wait, in-service
          hold) time summaries *)
  per_shard_znodes : int array;
  live_stubs_at_stat : int;
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  faults_fired : int;           (** plan events that executed *)
  history : Zk.History.t;
  violations : Zk.History.violation list;
      (** linearizability verdict over everything recorded ([[]] when
          nothing was) *)
  reshard : Zk.Reshard.stats option;  (** [None] without a shard change *)
  reshard_window : float;  (** sim-seconds, controller start -> done *)
}

val run : run_spec -> run_result

(** {2 Chaos runs — randomized network faults + linearizability oracle}

    One seeded schedule: [clients] processes hammer [registers]
    register znodes (one per directory, so a sharded deployment spreads
    them) and a sequential-create directory through a {!Zk.History}
    recorder while a {!Faults.Faultplan.chaos} plan (or the explicit
    [?plan]) partitions, drops, delays, duplicates and crashes the
    deployment until [heal_at]; the run continues [post_heal] seconds
    of healthy traffic, a probe measures per-shard write recovery, and
    the checker searches the whole recorded history. Identical
    arguments (seed included) reproduce bit-identical histories —
    compare [digest]s. [unsafe_no_dedup] exists for the checker's
    teeth test only. *)

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

val chaos_run :
  ?servers:int ->
  ?shards:int ->
  ?clients:int ->
  ?registers:int ->
  ?heal_at:float ->
  ?post_heal:float ->
  ?events:int ->
  ?think:float ->
  ?unsafe_no_dedup:bool ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  ?plan:Faults.Faultplan.t ->
  seed:int64 ->
  unit ->
  chaos_run

(** {2 Durability runs — power failures and storage corruption + oracle}

    One seeded schedule: [procs]-process mdtest runs over the full DUFS
    stack while [plan] power-fails the coordination ensemble (and
    optionally tears / bit-rots / snapshot-corrupts one member's disk
    during the outage — see the {!Faults.Faultplan} storage grammar).
    Alongside, [reg_clients] processes issue unconditioned register
    writes with unique data through a {!Zk.History} recorder; after the
    drained run a probe write proves the service recovered, the
    Wing–Gong checker validates the history, and
    {!Zk.History.durability_audit} compares the leader's recovered tree
    against it. The stack is built through {!run} (one shard); WAL and
    recovery counters are read from its ensemble. *)

type durability_run = {
  d_seed : int64;
  d_label : string;              (** schedule flavor, for reports *)
  d_run : run_result;
      (** the mdtest run; its history holds the register clients' ops
          and its [violations] their linearizability verdict *)
  d_durability_violations : Zk.History.violation list;
  d_recovered : bool;            (** post-outage probe write committed *)
  d_trees_agree : bool;          (** live replicas fingerprint-equal *)
  d_reg_ok : int;
  d_reg_err : int;
}

val durability_run :
  ?servers:int ->
  ?procs:int ->
  ?reg_clients:int ->
  ?registers:int ->
  ?ops_per_client:int ->
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?think:float ->
  plan:Faults.Faultplan.t ->
  label:string ->
  seed:int64 ->
  unit ->
  durability_run

(** Raw coordination-service throughput (Fig. 7): closed loop of [items]
    ops per client for each of the four basic operations. Returns
    [(op name, ops/sec)] in order create, get, set, delete. *)
val zk_raw : servers:int -> procs:int -> ?items:int -> unit -> (string * float) list

(** Clear the memo table (tests). *)
val reset_cache : unit -> unit

(** The coordination-service configuration used for all experiments:
    cost constants from {!Pfs.Costs.Zookeeper} plus the co-located-load
    inflation for [procs] client processes. [max_batch] (default 1)
    enables ZAB group commit. *)
val zk_config : ?max_batch:int -> servers:int -> procs:int -> unit -> Zk.Ensemble.config
