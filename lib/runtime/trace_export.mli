(** Chrome [trace_event] export of a run's profile and journal.

    Converts a merged {!Telemetry} profile plus the {!Journal} events of
    the same run into the JSON array format understood by
    [chrome://tracing] and Perfetto ([ui.perfetto.dev]):

    - every telemetry span becomes a complete ([ph = "X"]) event. Spans
      are aggregated by path (calls + total wall), not individually
      timestamped, so the exporter synthesizes a timeline: a shard's span
      (named for its shard id) or a daemon request's [trace:<id>] span
      starts at the [worker_spawned] journal event whose [worker] or
      [trace] field names it, on the PID track of that event's
      [worker_pid] (one track per worker), and its children are laid out
      sequentially inside it, preserving the measured durations and the
      tree shape;
    - every journal event becomes an instant ([ph = "i"]) event on its
      emitting PID's track, with the event fields as [args];
    - process-name metadata labels each worker track with its worker
      name.

    Timestamps are microseconds relative to the earliest journal event
    (or 0 when no events are given). *)

val to_trace :
  ?events:Journal.event list -> Telemetry.profile -> Checkpoint.json
(** The trace document: [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val save :
  path:string ->
  ?events:Journal.event list ->
  Telemetry.profile ->
  (unit, Cnt_error.t) result
(** Atomic write of the compact rendering (same convention as
    {!Checkpoint.write_atomic}). *)

(** {2 Per-request slicing}

    Every daemon request and every shard attempt of [cntpower all] or
    [cntpower campaign] mints a {!Tracectx}, so its journal events carry
    [trace] fields. A request's telemetry subtree is rooted at a span
    named [trace:<id>], a shard's at a span named for its shard id, the
    [worker] of the trace's [worker_spawned] event. These helpers cut
    one request's or shard's story out of a shared run directory
    ([cntpower trace --request <id>]). *)

val resolve_trace_id :
  events:Journal.event list -> string -> string option
(** Accepts either a trace id (any event carries it verbatim) or a
    request number (the [request] journal field); returns the trace id,
    or [None] when the journal knows nothing about the argument. *)

val slice :
  trace_id:string ->
  ?events:Journal.event list ->
  Telemetry.profile ->
  Telemetry.profile * Journal.event list
(** The sub-profile (every subtree named [trace:<id>] or for a worker
    the trace spawned, promoted to top level; counters and dists are
    run-global, so dropped) and only the events stamped with that trace
    — ready to pass to {!to_trace}/{!save}, where the subtree anchors on
    its worker's PID track. *)
