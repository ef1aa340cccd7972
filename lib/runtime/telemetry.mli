(** Per-run performance telemetry: spans, counters and distributions.

    The pipeline (pattern classification, transient characterization,
    technology mapping, 640 K-pattern power estimation) instruments its
    hot layers through this module. Everything hangs off one process-wide
    registry:

    - {b spans} ({!with_span}) measure hierarchical wall-clock regions,
      aggregated by path — calling [with_span "techmap.map"] 18 times
      under the same parent yields one tree node with [calls = 18];
    - {b counters} ({!count}) are monotonic integer totals (DC solves,
      cache hits, words simulated);
    - {b distributions} ({!observe}) keep min/mean/max plus a bounded
      deterministic sample for p50/p95 (simulator patterns/s, settle
      residuals).

    Collection is off by default. When disabled every entry point is a
    cheap branch on one flag — no allocation, no clock read — so the
    instrumentation can stay in release paths ([cntpower all] without
    [--profile] pays nothing; verified by the [telemetry-span-disabled]
    microbenchmark).

    Readers of the live registry ({!counter}, {!counters}, {!dists})
    skip the span tree, which a long-lived daemon grows by one subtree
    per request; {!Metrics} snapshots and the daemon's lifecycle totals
    read through them. {!summarize} and {!flatten} are the one
    distribution summary and the one span-path listing that
    [profile.json], [cntpower stats] (and [--json]), {!Metrics} and
    {!Compare} report.

    The registry is plain data, so a forked worker
    ({!Runtime.Supervisor.spawn} with a telemetry prefix) can {!reset}
    on entry, {!snapshot} on exit, marshal the profile back over the
    result pipe and have the parent {!merge} it under that prefix, one
    call per prefix node. Profiles
    serialize to the same dependency-free JSON as {!Checkpoint}
    ([_runs/<name>/profile.json]).

    {b Domain safety.} Registries are per-domain ([Domain.DLS]): the
    calling (main) domain owns the process-wide registry, and every
    domain spawned by {!Runtime.Dpool} records into a private fresh one,
    so parallel simulation kernels never race on the tables or lose
    counter increments. The pool snapshots each worker registry inside
    the worker and {!merge}s it into the spawner's after [join] — the
    same path used for forked supervisor workers. A domain spawned
    outside {!Runtime.Dpool} gets its own registry too, but nothing
    merges it back; route parallel work through the pool if its
    telemetry matters. The disabled mode is still one branch on a flag,
    with no allocation and no DLS access. *)

type span = {
  span_name : string;
  calls : int;  (** completed invocations aggregated into this node *)
  total_s : float;  (** wall-clock seconds across all calls *)
  children : span list;  (** sorted by [total_s], largest first *)
}

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_samples : float array;
      (** bounded systematic sample of the observations, used for
          quantile estimates; at most {!max_samples} values *)
}

type profile = {
  p_spans : span list;
  p_counters : (string * int) list;  (** sorted by name *)
  p_dists : (string * dist) list;  (** sorted by name *)
}

val max_samples : int
(** Upper bound on [d_samples] per distribution (512). *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans, counters and distributions (the enabled flag
    is left as is). Must not be called while spans are open. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); exposed so instrumented
    libraries can time throughput without their own [unix] dependency. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], charging its wall time to the span node
    [name] under the innermost open span. When disabled this is exactly
    [f ()]. Exception-safe: the span is closed (and charged) even if [f]
    raises. Direct recursion double-charges the recursive frames; name
    recursion levels distinctly if that matters. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the monotonic counter [name]. No-op when
    disabled. *)

val observe : string -> float -> unit
(** [observe name v] records [v] into the distribution [name]. No-op when
    disabled. *)

val snapshot : unit -> profile
(** Immutable copy of the registry (open spans are not included). The
    result is free of closures and safe to [Marshal]. *)

val counter : string -> int
(** The live value of one counter; 0 when it was never counted. *)

val counters : unit -> (string * int) list
val dists : unit -> (string * dist) list
(** The registry's counters and distributions, sorted by name, as in a
    {!snapshot} but without copying the span tree, which in a long-lived
    daemon holds a subtree per request served. *)

val merge : ?prefix:string list -> profile -> unit
(** Fold a profile (typically a forked worker's snapshot) into the live
    registry: span trees are grafted under the path [prefix] (created as
    needed, default root) adding calls and totals node-wise; counters add;
    distributions combine counts/sums/extrema and feed the incoming
    samples through the same bounded systematic sample as {!observe}. Works even while collection is disabled — merging is an
    explicit act. *)

val mean : dist -> float

val percentile : dist -> float -> float
(** [percentile d q] with [q] in [0, 1], estimated from the retained
    sample (nearest-rank). 0 on an empty distribution. *)

val find_counter : profile -> string -> int option
val find_dist : profile -> string -> dist option

(** The one summary of a distribution that [profile.json], [stats],
    [stats --json], {!Metrics} and {!Compare} report. *)
type summary = {
  count : int;
  sum : float;
  mean : float;  (** 0 when empty *)
  min : float;  (** 0 when empty *)
  max : float;  (** 0 when empty *)
  p50 : float;
  p95 : float;
}

val summarize : dist -> summary

val summary_fields : summary -> (string * Checkpoint.json) list
(** [count], [sum], [min], [max], [mean], [p50] and [p95] as JSON
    members. *)

val pp_summary : Format.formatter -> summary -> unit
(** ["n=… mean=… p50=… p95=… min=… max=…"]. *)

val flatten : span list -> (string * span) list
(** Every node of the span trees with its ['/']-joined path from the
    root, in pre-order: the rows of [stats --json] and of {!Compare}. *)

val to_json : profile -> Checkpoint.json
val of_json : Checkpoint.json -> (profile, Cnt_error.t) result
(** Round-trips spans, counters and distribution state. The emitted JSON
    additionally carries derived [mean]/[p50]/[p95] fields per
    distribution for downstream consumers; they are recomputed, not
    parsed, on load. *)

val save : path:string -> profile -> (unit, Cnt_error.t) result
(** Atomic write (same convention as {!Checkpoint.save}). *)

val load : path:string -> (profile, Cnt_error.t) result

val pp : Format.formatter -> profile -> unit
(** Human rendering: the span tree with calls and totals, then counters
    and distribution summaries ([cntpower stats]). *)
