(** Chrome [trace_event] export of a run's profile and journal.

    Converts a merged {!Telemetry} profile plus the {!Journal} events of
    the same run into the JSON array format understood by
    [chrome://tracing] and Perfetto ([ui.perfetto.dev]):

    - every telemetry span becomes a complete ([ph = "X"]) event. Spans
      are aggregated by path (calls + total wall), not individually
      timestamped, so the exporter synthesizes a timeline: a span named
      for a worker — a shard's (its shard id) or a sliced daemon
      request's ([req-<n>]) — starts at the latest [worker_spawned] event
      whose [worker] field names it, on the PID track of that event's
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

    Every shard of [cntpower all] or [cntpower campaign] and every daemon
    request runs in a worker with a unique name: the experiment name,
    the shard id [<circuit>/<library>/<seed>], or [req-<n>]. A shard's
    telemetry subtree is a span of that name (a request's stage times
    ride its [worker_exited] event), and its journal events name it: the
    pool's own and the worker's shipped-back events in a [worker] field,
    the queue log's transitions in a [shard] field, the daemon's request
    events in both [request] and [worker]. These helpers cut one unit's
    story out of a shared run directory
    ([cntpower trace --request <name>]). A run directory written by an
    older build has no names on the workers' own events, so its slices
    hold only the pool's and the queue log's events. *)

val resolve : events:Journal.event list -> string -> string option
(** Accepts a worker name or shard id that some event names, or a
    daemon request number (the [request] field), and returns the worker
    name; [None] when the journal knows nothing about the argument. *)

val slice :
  worker:string ->
  ?events:Journal.event list ->
  Telemetry.profile ->
  Telemetry.profile * Journal.event list
(** The sub-profile (every subtree named [worker], promoted to top level;
    counters and dists are run-global, so dropped) and only the events
    that name the worker — every attempt's, for a retried shard — ready
    to pass to {!to_trace}/{!save}, where the subtree anchors on its
    worker's PID track. With no subtree of that name, one is rebuilt
    from the worker's [worker_exited] event, spawn to exit. *)
