(** Live operational metrics snapshots for the daemon and the campaign
    coordinator.

    {!Telemetry} aggregates a run's performance profile for post-hoc
    analysis; this module renders the live part of the same registry —
    its counters and distribution summaries — next to the caller's
    gauges as a small, serializable point-in-time snapshot that can be
    polled while the system is under load. Counters come only from the
    registry: a caller that wants a total in the snapshot counts it with
    {!Telemetry.count}. Gauges are reads of the caller's own state (queue
    depth, in-flight workers, shards per queue state), computed when the
    snapshot is taken. Three surfaces consume it:

    - the [metrics] verb on the {!Server} daemon socket answers with a
      snapshot inline (never queued behind work, still served while
      draining);
    - the campaign coordinator writes one atomically to
      [_runs/<name>/metrics.json] after every shard completion;
    - [cntpower top] / [cntpower metrics] render either source as a
      one-screen status, JSON, or Prometheus text exposition.

    Building a snapshot reads the calling domain's registry without
    copying its span tree, so its cost does not grow with the requests a
    daemon has served. *)

type t = {
  m_source : string;  (** which subsystem: ["serve"] or ["campaign"] *)
  m_time : float;  (** unix epoch seconds at snapshot *)
  m_uptime_s : float;
  m_gauges : (string * float) list;  (** instantaneous, sorted by name *)
  m_counters : (string * int) list;  (** monotonic totals, sorted *)
  m_dists : (string * Telemetry.summary) list;  (** sorted by name *)
}

val make :
  source:string -> started:float -> ?gauges:(string * float) list -> unit -> t
(** Snapshot now: the caller's gauges with the calling domain's
    telemetry counters and distribution summaries (none when telemetry
    is disabled). [started] anchors [m_uptime_s]. *)

val hit_ratios : t -> (string * float * int * int) list
(** Cache effectiveness derived from counter pairs: for every counter
    [<base>.hits] with a sibling [<base>.misses], yields
    [(base, hits /. (hits + misses), hits, misses)]. Empty pairs (0/0)
    are omitted. *)

val to_json : t -> Checkpoint.json
val of_json : Checkpoint.json -> (t, Cnt_error.t) result

val save : path:string -> t -> (unit, Cnt_error.t) result
(** Atomic write (temp + rename), same convention as {!Checkpoint.save}:
    a poller never reads a torn snapshot. *)

val load : path:string -> (t, Cnt_error.t) result

val pp : Format.formatter -> t -> unit
(** One-screen human rendering: header with source/uptime, gauges,
    counters (sorted by value, largest first), cache hit ratios, and
    distribution summaries — the [cntpower top] refresh body. *)

val to_prometheus : t -> string
(** Prometheus text exposition (version 0.0.4): counters as
    [cntpower_<name>_total], gauges as [cntpower_<name>], distributions
    as summaries with [quantile="0.5"/"0.95"] series plus [_sum] and
    [_count], names sanitized to the metric charset. Ends with a trailing
    newline as scrapers require. *)
