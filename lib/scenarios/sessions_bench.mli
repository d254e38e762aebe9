(** The sessions experiment: 1k–100k client sessions, each with its own
    metadata cache, sweeping a fixed namespace with mdtest-stat and
    readdir-storm read passes — cold (server-bound, observers add
    capacity) then warm (cache-local) — while a writer mutates a slice
    of the namespace between passes and a sample of sessions is recorded
    through the linearizability checker. Contrasts per-znode watch
    coherence (server watch tables O(sessions × cached znodes)) with
    lease coherence (lease tables O(sessions × working dirs), watch
    tables empty). *)

type coherence = Watches | Leases

type phase_times = {
  mutable cold_s : float;
  mutable warm_s : float;
}

type case_result = {
  sessions : int;
  observers : int;
  mode : coherence;
  stat : phase_times;
  readdir : phase_times;
  stat_reads : int;
  readdir_reads : int;
  hits : int;
  misses : int;
  invalidations : int;
  watch_releases : int;
  watch_table_total : int;
  lease_entries_total : int;
  leases_granted : int;
  leases_renewed : int;
  leases_revoked : int;
  observer_reads : int;
  voter_reads : int;
  znodes : int;
  history_checked : int;
  violations : int;
}

val run_case :
  sessions:int -> observers:int -> mode:coherence -> seed:int64 -> unit ->
  case_result

(** [run ?cases ?json_path ()] — each case is
    [(sessions, observers, coherence)]; two {!Mdtest.Report.bench_point}s
    (stat, readdir) per case land in [json_path].
    @raise Failure, after writing the JSON, unless every case holds
    exactly [1 + 512 + 512 × 16] znodes, records a non-empty history with
    no violation, and shows its mode's server state: lease mode 0
    watches and one lease entry per session; watch mode at least one
    watch per session and no lease entry. *)
val run :
  ?cases:(int * int * coherence) list -> ?json_path:string -> unit ->
  case_result list

(** The CI case list: 1k sessions in both coherence modes, under the
    same gates as {!run}. *)
val smoke : ?json_path:string -> unit -> unit
