(** Fault-tolerant power-estimation daemon ([cntpower serve]).

    A Unix-domain-socket server speaking a tiny length-prefixed JSON
    protocol: each frame is a 4-byte big-endian payload length followed
    by that many bytes of JSON. A request is one JSON object with a
    ["verb"] field; the response is one framed JSON object with a
    ["status"] of ["ok"], ["error"] (a typed {!Cnt_error.t} payload) or
    ["overloaded"] (shed under load, with a [retry_after_s] hint).
    Connections may send several requests back to back; responses come
    in completion order.

    Robustness is the design center, in layers:

    - {b admission control}: frames larger than [max_request_bytes] are
      refused before their payload is read; malformed JSON, bad
      parameters and ill-formed netlists are refused by the caller's
      [admit] callback with a typed error — all before any work is
      scheduled.
    - {b overload shedding}: at most [max_workers] requests run at once
      and at most [queue_limit] wait; anything beyond that gets an
      immediate [overloaded] response instead of unbounded buffering.
    - {b crash isolation with deadlines}: every admitted request runs in
      its own forked worker of the {!Supervisor} pool, whose [wait] also
      watches the socket descriptors; a worker that crashes yields a
      typed [worker-killed] error for that request only, and one that
      outlives the request deadline is SIGKILLed and reported as
      [worker-timeout]. Siblings and the server never see either.
    - {b backoff and circuit breaker}: after a crash, dispatch pauses
      for an exponentially growing backoff (reset by the next success);
      if crash churn exceeds [breaker_threshold] crashes within
      [breaker_window_s], the breaker trips and the server drains.
    - {b graceful drain}: on SIGTERM/SIGINT (or the breaker) the server
      stops accepting, finishes queued and in-flight requests up to
      [drain_timeout_s], aborts stragglers with typed errors, then
      reports its final stats.

    The server narrates itself through {!Journal} (server lifecycle,
    request admission/rejection/completion, shed, respawn, breaker) and
    {!Telemetry} ([serve.*] counters plus the [serve.request_wall_s]
    distribution), so [_runs/serve-<ts>/] artifacts work with
    [cntpower stats]/[trace]/[compare] unchanged. A ["health"] verb is
    answered inline with uptime, queue depth and worker states, and a
    ["metrics"] verb — also inline, ahead of shedding, so
    it works under load and while draining — returns a {!Metrics}
    snapshot (request counts by verb and outcome, queue depth, in-flight
    workers, latency distributions, cache hit ratios).

    The lifecycle totals ([served], [failed], [shed], [rejected],
    [worker_crashes], [deadline_kills]) are counted once, as the
    telemetry counters [serve.<name>], and the per-verb request counts
    as [serve.verb.<verb>]: [health], the [metrics] verb and the final
    [server_stopped] event all read the same registry. The loop's own
    state holds no count, only the queues and workers the gauges are
    read from.

    Every request frame takes the next request number [n] and, once
    admitted, runs in the worker [req-<n>]. The daemon's own events for
    the request carry both [request] and [worker], the worker's events
    come back from the pool named for it, and its telemetry subtree sits
    under [serve.request/req-<n>], so [cntpower trace --request <n>]
    slices one request end-to-end and two runs of the same batch have
    the same span paths. *)

type config = {
  socket_path : string;
  max_workers : int;  (** concurrent forked workers (>= 1) *)
  queue_limit : int;  (** admitted requests allowed to wait (>= 0) *)
  max_request_bytes : int;  (** admission cap on the frame payload *)
  default_deadline_s : float;  (** per-request deadline when unspecified *)
  max_deadline_s : float;  (** cap on client-supplied deadlines *)
  drain_timeout_s : float;  (** budget for finishing work when draining *)
  breaker_threshold : int;  (** worker crashes within the window that trip *)
  breaker_window_s : float;
  backoff_initial_s : float;  (** dispatch pause after a crash; doubles *)
  backoff_max_s : float;
  retry_after_s : float;  (** hint carried by [overloaded] responses *)
  metrics_path : string option;
      (** when set, a {!Metrics} snapshot is written atomically here at
          least every [metrics_interval_s] while the loop runs (and once
          on stop) — the [cntpower top] file source *)
  metrics_interval_s : float;
}

val default_config : socket_path:string -> config
(** 4 workers, queue 16, 8 MiB frames, 60 s deadline (cap 3600 s), 30 s
    drain, breaker at 5 crashes / 60 s, backoff 0.05 s doubling to 2 s,
    no metrics file (1 s interval when one is set). *)

(** The domain logic, supplied by the caller so the server core stays
    generic (and testable with toy handlers). *)
type 'job handlers = {
  admit : Checkpoint.json -> ('job, Cnt_error.t) result;
      (** Runs in the server process on every non-health request, after
          the overload check: cheap validation (parameter ranges, BLIF
          parse + well-formedness) that turns garbage into a typed
          refusal before a worker is spawned. The job it returns carries
          what it parsed: [cntpower serve]'s job holds the checked
          netlist, on which the worker runs the synthesis-to-power flow
          without parsing the BLIF again. *)
  execute : 'job -> (Checkpoint.json, Cnt_error.t) result;
      (** Runs in the forked worker; its [Ok] JSON becomes the
          response's [result] field. The job crosses the fork by
          inheritance — no marshalling, so parsed netlists are fine. *)
  describe : 'job -> (string * string) list;
      (** Journal fields identifying the job (circuit name, library,
          pattern count) for [request_admitted] events. *)
}

type stop = Drained  (** clean SIGTERM/SIGINT drain: exit 0 *)
          | Tripped  (** circuit breaker: exit as [Worker_killed] (26) *)

val run : config -> 'job handlers -> (stop, Cnt_error.t) result
(** Bind the socket (replacing a stale file, refusing a live one) and
    serve until a drain completes. Only socket setup failures surface as
    [Error]; per-request failures are responses, never exits. Turns
    telemetry on from an empty registry with every lifecycle counter at
    0, and leaves it on, so the caller can save the daemon's profile. *)

(** {2 Client side}

    Used by [cntpower request], the benchmark harness and the tests. *)

val call :
  socket_path:string ->
  ?timeout_s:float ->
  Checkpoint.json ->
  (Checkpoint.json, Cnt_error.t) result
(** One request/response over a fresh connection: connect, send one
    frame, read one frame (under [timeout_s], default 60 s), close.
    Transport failures — no socket, refused connection, timeout, torn
    response — are typed [Io_error]s; a server-side failure is an [Ok]
    response whose payload {!response_error} decodes. *)

val response_error : Checkpoint.json -> Cnt_error.t option
(** Decode the typed error of an ["error"] (or ["overloaded"]) response;
    [None] for ["ok"]. An [overloaded] response decodes to code
    [Overloaded] so clients exit 29. *)

(** {2 Wire format helpers} (exposed for the protocol tests) *)

val write_frame :
  Unix.file_descr -> ?timeout_s:float -> string -> (unit, Cnt_error.t) result

val read_frame :
  Unix.file_descr ->
  ?timeout_s:float ->
  ?max_bytes:int ->
  unit ->
  (string, Cnt_error.t) result
