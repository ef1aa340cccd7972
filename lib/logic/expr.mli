(** Boolean expression trees.

    Used in two roles: as the functional specification of library gates
    (genlib-style formulas over pins) and as the factored forms rebuilt from
    irredundant covers during AIG refactoring. *)

type t =
  | Const of bool
  | Var of int
  | Not of t
  | And of t list
  | Or of t list
  | Xor of t list
      (** [And]/[Or]/[Xor] children lists always have length >= 2. *)

val var : int -> t
val const : bool -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val xor : t list -> t
(** Smart constructors: flatten nested operators of the same kind, drop
    units, and collapse to [Const]/single-child where possible. They do not
    attempt Boolean simplification beyond that. *)

val eval : (int -> bool) -> t -> bool

val to_tt : int -> t -> Truthtable.t
(** [to_tt n e] evaluates [e] as a function of [n] variables. *)

val support : t -> int list
(** Variables occurring in the expression, ascending, without duplicates. *)

val size : t -> int
(** Number of 2-input gate equivalents: every [And]/[Or]/[Xor] of [k]
    children costs [k-1]; [Not] and leaves are free. *)

val depth : t -> int
(** Levels of 2-input gate logic assuming balanced decomposition. *)

val of_cubes : Truthtable.cube list -> t
(** Two-level OR-of-ANDs expression of a cover. *)

val factor : Truthtable.cube list -> t
(** Algebraic factoring of a cover (quick-factor style: recursive division by
    the most frequent literal). The result computes the same function with
    typically far fewer literals than the flat SOP. *)

val factor_tt : Truthtable.t -> t
(** [factor_tt t] = [factor (Truthtable.isop t)], with XOR recovery: 2-input
    XOR/XNOR-shaped functions are emitted as [Xor] nodes. *)

val pp : Format.formatter -> t -> unit
(** Render with genlib-ish syntax: [*] for AND, [+] for OR, [^] for XOR, [!]
    for NOT, variables as [x<i>]. *)

val pp_named : (int -> string) -> Format.formatter -> t -> unit
