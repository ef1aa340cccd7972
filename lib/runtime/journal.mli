(** Append-only structured event journal for supervised runs.

    While {!Telemetry} answers "where did the time go", the journal
    answers "what happened": every run of [cntpower all], [campaign] and
    [serve] appends typed, leveled events — run and shard lifecycle,
    worker spawns and deaths, checkpoint writes, damped solver
    recoveries, golden drift, daemon requests — to
    [_runs/<name>/events.jsonl], one JSON object per line. Lines are
    written whole and flushed immediately, so a [kill -9] of the driver
    loses at most the event in flight and the file stays parseable.

    Like {!Telemetry}, collection is off by default and every entry point
    is a single branch on one flag when disabled; call sites that build
    field lists guard on {!enabled} so the disabled pipeline allocates
    nothing.

    Forked workers cannot share the parent's file offset, so a worker
    {!begin_capture}s on entry (dropping the inherited sink), buffers its
    events in memory, and the supervisor ships them back over the result
    pipe for the parent to {!append_events} — same transport as worker
    telemetry profiles — naming the worker in a [worker] field of each.
    Events carry the emitting PID and a per-process monotonic sequence
    number, so the merged file keeps full provenance: file order is
    append order, and per-PID [seq] is strictly increasing. *)

type level = Debug | Info | Warn

type kind =
  | Run_started
  | Run_finished
  | Worker_spawned
  | Worker_exited
  | Worker_timeout
  | Worker_killed
  | Checkpoint_written
  | Solver_damped_retry
  | Golden_drift
  | Server_started  (** [cntpower serve] bound its socket and is accepting *)
  | Server_draining
      (** the daemon stopped accepting and is finishing in-flight work
          (SIGTERM/SIGINT, or the crash-churn circuit breaker) *)
  | Server_stopped  (** the daemon exited; fields carry the final stats *)
  | Request_admitted  (** a request passed admission and was dispatched/queued *)
  | Request_rejected  (** admission refused a request with a typed error *)
  | Request_done  (** a response was sent; fields carry status and wall time *)
  | Overload_shed  (** queue full (or draining): immediate overloaded reply *)
  | Worker_respawned
      (** dispatch resumed after a worker crash and its backoff window *)
  | Breaker_tripped
      (** worker crash churn exceeded the threshold; server flips to drain *)
  | Shard_enqueued  (** a campaign shard entered the work-queue log *)
  | Shard_leased
      (** the campaign coordinator took a time-stamped lease on a shard *)
  | Shard_done  (** a shard completed; fields carry wall time and attempt *)
  | Shard_failed
      (** an attempt failed (worker death, timeout, typed error); the
          shard stays eligible for retry until its attempt budget runs out *)
  | Shard_quarantined
      (** a shard exhausted its attempts and was set aside; the campaign
          continues degraded *)
  | Lease_reclaimed
      (** on resume, a lease whose owner died (or expired) was reclaimed *)
  | Custom of string
      (** forward compatibility: unknown names parse as [Custom] rather
          than failing the whole journal *)

type event = {
  ev_seq : int;  (** monotonic per emitting process, from 1 *)
  ev_time : float;  (** unix epoch seconds *)
  ev_pid : int;  (** emitting process *)
  ev_level : level;
  ev_kind : kind;
  ev_fields : (string * string) list;
}

val level_name : level -> string
val kind_name : kind -> string
val kind_of_name : string -> kind

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_verbosity : level option -> unit
(** Echo threshold for the live stderr rendering of events: [None]
    silences all chatter ([--log-level quiet]), [Some Info] echoes info
    and warnings (default), [Some Debug] echoes everything. The on-disk
    journal always records every event regardless of verbosity. *)

val open_sink :
  ?max_bytes:int -> ?keep:int -> path:string -> unit -> (unit, Cnt_error.t) result
(** Open the JSONL sink with {!Checkpoint.open_jsonl} (append, create,
    parent directories as needed, a torn final line ended first). Any
    previously open sink is closed first. When [max_bytes] is given,
    the sink rotates once it crosses that size: the live file becomes
    [path.1], existing [path.i] shift to [path.i+1], and segments past
    [keep] (default 4) are dropped — bounding a long-lived daemon's
    journal to roughly [(keep + 1) * max_bytes]. {!load} reads rotated
    segments back in order. *)

val close_sink : unit -> unit
(** Flush and close the sink if open. Safe to call when none is. *)

val emit : ?level:level -> ?msg:string -> kind -> (string * string) list -> unit
(** Record one event: stamp it with the next sequence number, the clock
    and the PID, write it to the sink (or the capture buffer inside a
    worker), and echo one line to stderr when [level] passes the
    verbosity threshold ([msg] replaces the rendering of the kind and
    fields after the ["journal: "] prefix). No-op when disabled — guard
    field-list construction on {!enabled} in hot paths. *)

val begin_capture : unit -> unit
(** Worker-side, immediately after [fork]: drop the inherited sink and
    buffer subsequent events in memory with a fresh sequence counter.
    No-op when disabled. *)

val end_capture : unit -> event list
(** Return the buffered events in emission order and leave capture mode.
    [[]] when not capturing. *)

val append_events : event list -> unit
(** Parent-side: write already-stamped events (a worker's capture) to the
    sink verbatim — no re-stamping, no echo (the worker already echoed to
    the shared stderr as it ran). *)

val load : path:string -> (event list * int, Cnt_error.t) result
(** Parse a journal: rotated segments ([path.N] oldest first, then
    [path.1]) followed by the live file, as one logical event stream in
    append order, plus the number of malformed lines skipped. A torn
    final line (the crash case) or an interleaved corrupt line degrades
    to a skip count, never a failure; only the live file being unreadable
    is an error. *)

val find : event -> string -> string option
(** Field lookup. *)
