(** Durable campaign work-queue: an append-only write-ahead shard log.

    A run of [cntpower campaign] or [cntpower all] decomposes its work
    into shards — one (circuit × library × seed) cell, or one experiment,
    each — and records every state transition as one flushed JSON line
    in [_runs/<run>/queue.jsonl]:

    {v enqueued -> leased -> done
                        \-> failed -> leased -> ... -> quarantined v}

    Lines are written whole and flushed immediately by the JSONL
    appender the {!Journal} also uses ({!Checkpoint.open_jsonl}), so a
    [kill -9] of the coordinator tears at most the line in flight;
    {!open_} skips torn lines and reports how many. Because the
    log is the single durable source of truth, replaying it reconstructs
    the exact queue state: which shards are done (with their result
    scalars carried in the [done] record's fields), which were leased
    when the coordinator stopped, and how many attempts each has
    consumed since it was last enqueued. Resume is therefore "open the
    log, reclaim every lease, re-enqueue whatever must run again".

    {b One coordinator per log.} Only the run's one coordinator appends
    to it, so every lease found at {!open_} belongs to an invocation that
    has stopped. Two coordinators on one live log are not supported:
    nothing detects the second, and it would reclaim the first's leases.

    The queue knows nothing about what a shard {e is} — shards are
    opaque string ids with opaque string fields — so the module stays in
    [lib/runtime] with no dependency on the experiment layer. *)

type state = Enqueued | Leased | Done | Failed | Quarantined


type record = {
  rc_time : float;  (** unix epoch seconds of the append *)
  rc_pid : int;  (** appending process *)
  rc_shard : string;
  rc_state : state;
  rc_attempt : int;  (** lease ordinal, from 1; [0] for [enqueued] *)
  rc_fields : (string * string) list;
}

type t

val open_ : path:string -> ((t * int), Cnt_error.t) result
(** Open (or create, with parent directories) the queue log at [path],
    replay existing records into in-memory per-shard state, and return
    the handle plus the number of torn/corrupt lines skipped. Only an
    unreadable or unwritable file is an error. A log written when leases
    carried an [expires] time still loads; the field is ignored. *)

val close : t -> unit

(** {2 Appending transitions}

    Each call appends one flushed record and updates the replayed state;
    the on-disk log and the in-memory view never diverge. A matching
    journal event ([shard_enqueued] .. [shard_quarantined]) carrying the
    record's fields is emitted when the {!Journal} is enabled; the live
    echo of [shard_done] names only the shard, the attempt and the
    [wall_s] field. *)

val enqueue : t -> string -> bool
(** Record a shard as available with a fresh attempt count: a new shard,
    or a failed, done or quarantined one the caller wants run again.
    Returns [false] (and appends nothing) when the shard is already
    enqueued or leased. *)

val lease : t -> string -> int
(** Take a lease: appends a [leased] record and returns the attempt
    ordinal (one more than the attempts consumed so far). *)

val mark_done : t -> string -> fields:(string * string) list -> unit
(** Terminal success. [fields] should carry everything needed to rebuild
    the shard's manifest entry (wall time, result scalars): the done
    record makes the result durable even if the coordinator dies before
    the manifest write. *)

val mark_failed : t -> string -> fields:(string * string) list -> unit
(** One attempt failed; the shard becomes eligible for re-lease. Also
    used to reclaim a lease on resume. *)

val mark_quarantined : t -> string -> fields:(string * string) list -> unit
(** Terminal failure: attempts exhausted, shard set aside. *)

(** {2 Replayed state} *)

val state : t -> string -> state option
(** [None]: the shard is not in the log. *)

val attempts : t -> string -> int
(** Lease ordinals consumed since the shard was last enqueued. *)

val fields : t -> string -> (string * string) list
(** Fields of the shard's most recent terminal record ([done] or
    [quarantined]); [[]] otherwise. *)

val shards : t -> string list
(** Every known shard, in first-enqueue order. *)

val count : t -> state -> int

val ready : t -> string list
(** Shards eligible for (re-)lease — state [Enqueued] or [Failed] — in
    enqueue order. Leased shards are not ready; reclaim them first (see
    {!leased}). *)

val leased : t -> string list
(** Shards whose last record is [leased], in enqueue order. Read right
    after {!open_}, these are the residue of a coordinator that stopped
    mid-attempt (a SIGKILL, a crash, a restart), which the caller marks
    [failed]. *)

(** {2 Reading without a handle} *)

val load : path:string -> (record list * int, Cnt_error.t) result
(** Records in file order plus skipped-line count — for tests and
    consistency checks; does not open an append sink. *)
