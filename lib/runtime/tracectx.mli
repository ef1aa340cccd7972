(** Process-inherited trace correlation context.

    A trace context is a [trace id / span id / parent span id] triple
    minted at every entry point — one per [cntpower serve] request, per
    campaign shard, per [cntpower all] experiment — and carried through
    everything that work causes: it rides a [fork] into
    {!Supervisor.spawn} workers for free (process memory), is
    re-installed in {!Dpool} domains by the pool, and is stamped onto
    every {!Journal} event so post-hoc tools ([cntpower trace
    --request <id>]) can slice one request's events and spans out of a
    shared journal end-to-end.

    Ids are counter-based — no [Random], no clock: [t<pid>-<n>] /
    [s<pid>-<n>] from a per-process atomic counter. A forked worker
    inherits the counter value, but its PID differs, so ids stay unique
    across the whole worker tree without coordination.

    The current context is per-domain state ({!Domain.DLS}), mirroring
    {!Telemetry}'s registries: domains never share a mutable context, and
    the pool captures the spawning domain's context and {!set}s it inside
    each worker domain. *)

type t = {
  trace_id : string;  (** stable across the whole request/shard tree *)
  span_id : string;  (** this unit of work *)
  parent_id : string option;  (** the span that caused this one *)
}

val current : unit -> t option
(** The calling domain's active context, if any. *)

val set : t option -> unit
(** Install (or clear) the calling domain's context. Used by forked
    workers ({!child} of the inherited context) and by {!Dpool} worker
    domains (the spawning domain's context verbatim). *)

val mint_root : unit -> t
(** A fresh trace: new trace id, new root span, no parent. Call once at
    each entry point. *)

val child : t -> t
(** A child span in the same trace: fresh span id, parent = the given
    context's span. Forked workers derive their own span this way so the
    journal distinguishes the request's events from its workers'. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] installed and restores the
    previous context afterwards, even on exceptions. *)

val span_label : t -> string
(** The telemetry span-path component for this trace, ["trace:<id>"] —
    used as a prefix segment when merging worker profiles so per-request
    subtrees are addressable in [profile.json]. *)

val trace_of_label : string -> string option
(** Inverse of {!span_label}: [Some id] when the string is a
    ["trace:<id>"] label. *)

val to_fields : t -> (string * string) list
(** Journal-field rendering: [("trace", ...); ("span", ...)] plus
    [("parent", ...)] when there is one. *)

val of_fields : (string * string) list -> t option
(** Recover a context from journal fields written by {!to_fields}. *)
