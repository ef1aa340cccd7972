(** Truth tables over up to 16 variables.

    A table over [n] variables stores 2^n function values packed into 64-bit
    words; minterm [m] (variable [i] contributing bit [i] of [m]) is bit
    [m mod 64] of word [m / 64]. Tables are immutable. *)

type t

val nvars : t -> int

val const : int -> bool -> t
(** [const n b] is the constant-[b] function of [n] variables. *)

val var : int -> int -> t
(** [var n i] is the projection onto variable [i] ([0 <= i < n <= 16]). *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val eval : t -> int -> bool
(** [eval t m] is the value of the function on minterm [m]. *)

val count_ones : t -> int

val is_const : t -> bool option
(** [Some b] if the table is the constant [b], else [None]. *)

val depends_on : t -> int -> bool
(** Whether the function actually depends on variable [i]. *)

val support : t -> int list
(** Variables the function depends on, ascending. *)

val cofactor : t -> int -> bool -> t
(** [cofactor t i b] restricts variable [i] to value [b]; the result still
    formally ranges over [n] variables but no longer depends on [i]. *)

val permute : t -> int array -> t
(** [permute t p] renames variables: variable [i] of the argument becomes
    variable [p.(i)] of the result. [p] must be a permutation of
    [0 .. nvars-1]. *)

val flip_input : t -> int -> t
(** Negate input [i]: [flip_input t i] evaluated on [m] equals [t] on
    [m lxor (1 lsl i)]. *)

val shrink : t -> t
(** Project the function onto its support: the result has [List.length
    (support t)] variables, with support variables renumbered in ascending
    order. *)

val expand : t -> int -> t
(** [expand t n] re-views [t] as a function of [n >= nvars t] variables that
    ignores the new ones. *)

val stretch : t -> int -> int array -> t
(** [stretch t n pos] re-views [t] as a function of [n] variables in which
    variable [i] of [t] becomes variable [pos.(i)] and the others are
    ignored. [pos] is strictly ascending with [pos.(i) < n]: it places a
    cut's leaves among a larger cut's. *)

val of_int64 : int -> int64 -> t
(** [of_int64 n w] builds a table of [n <= 6] variables from the low [2^n]
    bits of [w]. *)

val to_int64 : t -> int64
(** Inverse of {!of_int64}; the table must have at most 6 variables. *)

val word_flip : int64 -> int -> int64
(** {!flip_input} on the word of {!to_int64}, without building a table.
    Tables of at most 6 variables run {!depends_on}, {!shrink},
    {!stretch} and {!isop} on their word too. *)

val word_permute : int64 -> int array -> int64
(** {!permute} on the word of {!to_int64}, as at most [nvars - 1]
    variable swaps. *)

val of_bits : int -> bool array -> t
(** [of_bits n values] with [Array.length values = 2^n]. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal dump, most significant word first. *)

(** {1 Two-level covers} *)

type cube = { pos : int; neg : int }
(** A product term over the table's variables: variable [i] appears positive
    if bit [i] of [pos] is set, negative if bit [i] of [neg] is set.
    [pos land neg = 0]. The empty cube is the constant-1 product. *)

val cube_tt : int -> cube -> t
(** Truth table of a cube over [n] variables. *)

val isop : t -> cube list
(** Irredundant sum-of-products cover computed with the Minato–Morreale
    recursion. [isop t] covers exactly the on-set of [t]. *)

val of_cubes : int -> cube list -> t
(** OR of the given cubes over [n] variables. *)
