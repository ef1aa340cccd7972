(** Durable supervised runs: the one runner behind [cntpower all] and
    [cntpower campaign].

    A run is a list of independent shards — one experiment of the E1–E15
    battery each, or one (circuit × library × seed) cell of the Table 1
    sweep ({!grid}) — driven through the {!Runtime.Supervisor}
    forked-worker pool under a durable {!Runtime.Workqueue} log at
    [_runs/<run>/queue.jsonl]. Every transition (enqueued / leased /
    done / failed / quarantined) is one crash-safe flushed line, and four
    rules govern the run:

    - {b retry}: only a worker death or an overrun
      ({!Runtime.Supervisor.retryable}) is retried, after an exponential
      backoff and in degraded mode ([~degraded:true]); any other error,
      or the last of [max_attempts], quarantines the shard
      ({!Runtime.Cnt_error.Shard_quarantined}) and the run continues
      degraded. Attempts count per invocation: each invocation enqueues
      afresh every shard it runs, so its first attempt is undegraded.
    - {b resume}: without [resume] an existing queue log is refused.
      With it, leases left by a dead coordinator (dead owner or expired
      timestamp) are reclaimed, a shard the log records [done] with the
      same resume key is skipped, and every other shard — quarantined,
      failed, or done for another workload — runs again.
    - {b strict}: with [strict] the first quarantine stops all leasing;
      shards never leased are reported {!Skipped}.
    - {b profiles}: each worker's telemetry is grafted under a span named
      for its shard id, so identical runs have identical span paths.

    The queue log is the only durable record: the [done] record carries
    the shard's resume key, degraded flag, wall time and result scalars,
    and [manifest.json] is a {!Runtime.Checkpoint} view rendered from the
    [done] records (one entry per done shard, in shard order) at
    start-up and after every completion, next to a merged telemetry
    profile, so [cntpower stats/trace/compare] work on a half-finished
    run.

    Each shard runs in a worker named for its id: the queue log's
    transitions name it as [shard], the pool's and the worker's journal
    events as [worker], so [cntpower trace --request <id>] slices a
    single shard, every attempt of it. The coordinator also keeps
    [_runs/<run>/metrics.json] fresh — an atomic {!Runtime.Metrics}
    snapshot rewritten after every state change, the [cntpower top <run>]
    data source. Its telemetry counters and distributions come from the
    registry; the coordinator's own numbers (shards per queue state,
    leases, completions, reclaimed and resumed shards) are gauges, since
    a shard count falls when a failed shard is leased again. *)

type shard = {
  id : string;  (** unique in the run; the manifest entry's name *)
  key : string;
      (** resume key, made from what [run] runs: a [done] record with
          another key runs again *)
  seed : int64;  (** the manifest entry's seed *)
  patterns : int;  (** the manifest entry's pattern count *)
  run : degraded:bool -> (string * float) list;
      (** Runs in a forked worker and returns the scalars recorded in the
          manifest; [~degraded:true] on a retry, to shed load. *)
}

val grid :
  circuits:Circuits.Suite.entry list ->
  libraries:Cell.Genlib.t list ->
  seeds:int64 list ->
  patterns:int ->
  shard list
(** The Table 1 sweep in deterministic (circuit-major) order, one shard
    ["<circuit>/<library>/<seed>"] per cell: generate, check, resyn2rs,
    map and estimate, keyed on its seed and pattern count. *)

val select : only:string list -> shard list -> (shard list, Runtime.Cnt_error.t) result
(** The shards [only] names, in shard order; every shard when [only] is
    empty. A name picks a shard by its full id or by the id's first
    ['/']-separated component (a grid shard's circuit name), the rule the
    fault injections below use too. A name that picks no shard is a
    [cli/validation-error] naming it. *)

(** Deterministic fault injection, for tests and the CI resilience jobs;
    each list names shards by the rule of {!select}. *)
type inject = {
  inj_crash : string list;  (** SIGKILL the worker on every attempt *)
  inj_flaky : string list;
      (** SIGKILL the worker on the invocation's first attempt only *)
  inj_hang : string list;  (** sleep past the shard deadline *)
  inj_kill_after : int option;
      (** SIGKILL the {e coordinator} right after the Nth [done] record
          of this run hits the queue log — before the manifest write, the
          worst-timed crash resume must recover from *)
}

val no_inject : inject

type config = {
  campaign : string;  (** run name; directory under [runs_dir] *)
  runs_dir : string;  (** parent directory, normally ["_runs"] *)
  workers : int;  (** concurrent forked workers *)
  shard_timeout_s : float;  (** per-attempt deadline; [<= 0.] disables *)
  max_attempts : int;  (** attempts per invocation before quarantine *)
  backoff_initial_s : float;  (** first retry delay; doubles per attempt *)
  backoff_max_s : float;
  resume : bool;  (** continue an existing queue log *)
  strict : bool;  (** stop leasing at the first quarantine *)
  inject : inject;
}

val default_config : campaign:string -> config
(** 4 workers, 300 s shard timeout, 3 attempts, 0.5 s → 30 s backoff, no
    resume, keep going, no injection. *)

type outcome =
  | Done of { wall_s : float; attempts : int; degraded : bool }
      (** ran to [done] in this invocation *)
  | Resumed  (** already [done] for this workload when the log opened *)
  | Quarantined of Runtime.Cnt_error.t
      (** set aside; the error names the shard *)
  | Skipped  (** never finished: a strict run stopped first *)

type summary = {
  results : (string * outcome) list;  (** shard order *)
  leases : int;  (** leases taken by this invocation *)
  reclaimed : int;  (** stale leases reclaimed on open *)
  wall_s : float;
}

val run : config -> shard list -> (summary, Runtime.Cnt_error.t) result
(** Drive the shards to completion (every shard [done] or [quarantined],
    or a strict stop). Returns [Error] only for setup/configuration
    failures — an existing queue log without [resume] among them;
    shard failures degrade into retries and quarantine, never abort the
    run. *)

val quarantined : summary -> string list

val pp_summary : Format.formatter -> summary -> unit
(** [cntpower campaign]'s one-line count, plus the quarantined ids. *)

val print_results : Format.formatter -> summary -> unit
(** [cntpower all]'s summary: one line per shard (failures with their
    typed error, degraded passes flagged) and a pass/fail count. *)

val exit_status : config -> summary -> int
(** [cntpower all]'s exit code: [0] nothing quarantined (resumed and
    degraded shards count as passed); [11] a strict run stopped at a
    quarantine; [10] a run that kept going completed with quarantines. *)

(** {2 Run directory layout} *)

val run_file : ?runs_dir:string -> string -> string -> string
(** [run_file run name] is [<runs_dir>/<run>/<name>], [runs_dir]
    defaulting to ["_runs"]: the one place a run's files are named —
    [queue.jsonl], [manifest.json], [events.jsonl], [profile.json],
    [metrics.json] (the live {!Runtime.Metrics} snapshot) and the
    [trace.json] export. *)

val validate_run_name : string -> (unit, Runtime.Cnt_error.t) result
(** A run name must name one directory under [runs_dir]: [""], ["."],
    [".."] and any name containing ['/'] are a [validation-error]. {!run}
    checks it; [cntpower serve], [all] and [campaign] check it before they
    open the run's journal. *)

val queue_path : config -> string
val manifest_path : config -> string
