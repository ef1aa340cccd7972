(** Durable sweep campaigns: the scale-out counterpart of the supervised
    harness.

    A campaign decomposes the paper's battery into independent shards —
    one (circuit × library × seed) cell each — and drives them through
    the {!Runtime.Supervisor} forked-worker pool under a durable
    {!Runtime.Workqueue} log at [_runs/<campaign>/queue.jsonl]. Every
    transition (enqueued / leased / done / failed / quarantined) is one
    crash-safe flushed line, so the campaign survives:

    - {b worker death}: the attempt is recorded [failed] and the shard
      retried with exponential backoff, up to [max_attempts];
    - {b poison shards}: after [max_attempts] failures the shard is
      [quarantined] ({!Runtime.Cnt_error.Shard_quarantined}) and the
      campaign continues degraded — healthy shards still produce
      results, and the summary lists what was set aside;
    - {b coordinator SIGKILL}: [done] records carry the result scalars,
      so [run] with [resume = true] reclaims stale leases (dead owner or
      expired timestamp) and re-runs only shards not recorded [done].

    The queue log is the only durable record: [manifest.json] is a
    {!Runtime.Checkpoint} view rendered from its [done] records (one
    entry per done shard, in grid order) at start-up and after every
    completion, next to a merged telemetry profile, so [cntpower
    stats/trace/compare] work on a half-finished campaign.

    Each shard attempt set mints a {!Runtime.Tracectx}: the lease and
    outcome records, the worker's journal events and its telemetry
    subtree (under [campaign/shard/trace:<id>]) share one trace id, so
    [cntpower trace --request <id>] slices a single shard. The
    coordinator also keeps [_runs/<campaign>/metrics.json] fresh — an
    atomic {!Runtime.Metrics} snapshot rewritten after every state
    change, the [cntpower top <campaign>] data source. *)

type shard = {
  sh_id : string;  (** ["<circuit>/<library>/<seed>"] *)
  sh_circuit : string;
  sh_library : string;
  sh_seed : int64;
}

(** Deterministic fault injection, for tests and the CI resilience job.
    Shards match by full id or by circuit name. *)
type inject = {
  inj_crash : string list;  (** SIGKILL the worker on every attempt *)
  inj_flaky : string list;  (** SIGKILL the worker on the first attempt only *)
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
  circuits : Circuits.Suite.entry list;
  libraries : Cell.Genlib.t list;
  seeds : int64 list;
  patterns : int;
  workers : int;  (** concurrent forked workers *)
  shard_timeout_s : float;  (** per-attempt deadline; [<= 0.] disables *)
  max_attempts : int;  (** lease budget before quarantine *)
  backoff_initial_s : float;  (** first retry delay; doubles per attempt *)
  backoff_max_s : float;
  resume : bool;  (** continue an existing queue log *)
  inject : inject;
}

val default_config : campaign:string -> config
(** All circuits × all libraries × seed 42, default patterns, 4 workers,
    300 s shard timeout, 3 attempts, 0.5 s → 30 s backoff, no resume,
    no injection. *)

val enumerate : config -> shard list
(** The shard grid in deterministic (circuit-major) order. *)

type summary = {
  total : int;  (** shards in this campaign's grid *)
  completed : int;  (** shards that ran to [done] in this invocation *)
  resumed : int;  (** shards already [done] in the log when we opened it *)
  quarantined : string list;  (** shard ids set aside, enqueue order *)
  attempts : int;  (** leases taken by this invocation *)
  reclaimed : int;  (** stale leases reclaimed on open *)
  wall_s : float;
}

val run : config -> (summary, Runtime.Cnt_error.t) result
(** Drive the campaign to completion (every shard [done] or
    [quarantined]). Returns [Error] only for setup/configuration
    failures — shard failures degrade into retries and quarantine, never
    abort the campaign. The caller maps a non-empty [quarantined] list to
    the {!Runtime.Cnt_error.Shard_quarantined} exit code. *)

val pp_summary : Format.formatter -> summary -> unit

(** {2 Campaign directory layout} *)

val dir : config -> string
val queue_path : config -> string
val manifest_path : config -> string
val profile_path : config -> string
val events_path : config -> string

val metrics_path : config -> string
(** [_runs/<campaign>/metrics.json] — live {!Runtime.Metrics} snapshot. *)
