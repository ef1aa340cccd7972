(** Packed bit vectors used for 64-way parallel logic simulation.

    A [Bitvec.t] holds [length] bits packed into 64-bit words. Bit [i] of the
    vector is bit [i mod 64] of word [i / 64]. Logical operations are
    word-parallel, which is what makes 640 K-pattern power estimation cheap.

    {b Storage.} The words live unboxed in one [Bytes] block, word [w] at
    byte offset [8 * w] in native byte order, and a vector always has at
    least one word (an empty vector keeps one all-zero word). An [int64]
    array would box every element: each store would allocate a fresh
    block and pass the write barrier. The word accessors {!load} and
    {!store} are declared [external] so that callers in other modules
    compile them to a single machine load or store: a plain function
    would not be inlined across modules built with [-opaque] (dune's dev
    profile) and would box the [int64] it returns or receives on every
    call. *)

type t

type words
(** The word storage of a vector, as laid out above. *)

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. *)

val length : t -> int

val words : t -> words
(** Underlying storage (shared, not copied), for the flat simulation
    kernels. It holds [max 1 ((length + 63) / 64)] words. Bits beyond
    [length] in the last word are kept at zero by all operations of this
    module. *)

external load : words -> int -> int64 = "%caml_bytes_get64u"
(** [load ws off] is the word at byte offset [off] (word [off / 8]).
    Unchecked: [off] must be a multiple of 8 inside the storage. *)

external store : words -> int -> int64 -> unit = "%caml_bytes_set64u"
(** [store ws off x] writes the word at byte offset [off]; unchecked like
    {!load}. Writers that may set bits past [length] call {!clamp} after. *)

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val fill_random : Prng.t -> t -> unit
(** Overwrite every bit with an independent fair coin flip. Draws exactly
    one {!Prng.next64} per storage word (i.e. [max 1 (words)]), in word
    order — parallel fills rely on this draw count to split the stream
    with {!Prng.jump}. *)

val clamp : t -> unit
(** Re-zero the bits past [length] in the last word (the whole word when
    [length = 0]). Only needed by code that writes {!words} directly (the
    flat simulation kernels); every operation of this module already
    maintains the invariant. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val equal : t -> t -> bool
val popcount : t -> int

val transitions : t -> int
(** [transitions v] counts indices [i] with [get v i <> get v (i+1)] — the
    number of toggles along the bit sequence, used for switching-activity
    estimation when bits encode consecutive simulation cycles. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
