(** Deterministic SplitMix64 pseudo-random number generator.

    All stochastic parts of the reproduction (random simulation patterns,
    randomized benchmark generators) draw from this generator so that every
    experiment is bit-reproducible across runs and machines. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val fill : t -> Bytes.t -> at:int -> len:int -> unit
(** [fill t b ~at ~len] writes the next [len] draws of [t], in order, as
    native-endian 64-bit words [at, at + len) of [b] (word [w] at byte
    offset [8 * w]): the words [len] calls of {!next64} return, without
    allocating. Raises [Invalid_argument] if the words fall outside
    [b]. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val jump : t -> int -> unit
(** [jump t n] advances [t] by exactly [n] draws in O(1): the next
    {!next64} returns what the [(n+1)]-th call would have. SplitMix64 is
    a counter-mode generator, so parallel simulation can hand each worker
    a jumped copy and produce streams bit-identical to one sequential
    generator filling the whole pattern axis. [n] must be
    non-negative. *)
