(** 64-way parallel bit simulation of netlists.

    This is the engine behind the 640 K random-pattern power estimation of
    the paper (Section 4): input vectors are packed 64 per machine word, and
    the whole netlist is evaluated with word-level logic operations.

    The netlist is first lowered to a flat instruction stream over the
    unboxed word buffers (every gate but XOR/XNOR becomes a {!cover}; no
    allocation in the inner loop), then the pattern axis is sharded into
    word-aligned chunks across domains with {!Runtime.Dpool}. Word-level
    bitwise operations are word-local, so the result is bit-identical for
    any domain count — including the random stimulus, whose PRNG stream
    is split per chunk with {!Logic.Prng.jump}. [?domains] defaults to
    {!Runtime.Dpool.default_domains} ([--domains N] on the CLI); small
    pattern counts fall back to a sequential loop. *)

type result = {
  num_patterns : int;
  node_values : Logic.Bitvec.t array;  (** indexed by node id *)
}

val run : ?domains:int -> Netlist.t -> Logic.Bitvec.t array -> result
(** [run t input_vectors] simulates with the given per-input stimulus (in
    [Netlist.inputs] order; all vectors must have equal length). *)

val random_stimulus :
  ?domains:int ->
  ?seed:int64 ->
  inputs:int ->
  patterns:int ->
  unit ->
  Logic.Bitvec.t array
(** [inputs] fresh vectors of [patterns] uniform random bits each —
    exactly the vectors a single [Prng.create seed] generator produces
    filling vector 0 word-by-word, then vector 1, ... (bit-identical for
    any [?domains]). *)

val run_random : ?domains:int -> ?seed:int64 -> Netlist.t -> int -> result
(** [run_random t n] simulates [n] uniform random patterns (deterministic
    given [seed], default [42L], for any domain count). *)

val signal_probability : result -> int -> float
(** Fraction of patterns on which the node evaluates to 1. *)

val toggle_rate : result -> int -> float
(** Average number of value changes per consecutive pattern pair — the
    switching activity [alpha] of the node under the applied stimulus,
    treating patterns as consecutive clock cycles. *)

val output_values : Netlist.t -> result -> (string * Logic.Bitvec.t) array

(** {1 Cover kernel}

    The word kernel of both simulators, shared with
    [Techmap.Mapped.simulate]: a cover (an OR of cubes, each an AND of
    literal vectors) evaluated over a word range one literal at a time,
    the words as the innermost loop. *)

type cover

val cover_of_cubes : Logic.Truthtable.cube list -> Logic.Bitvec.words array -> cover
(** [cover_of_cubes cubes srcs] lowers [cubes] (variable [i] = [srcs.(i)],
    e.g. from {!Logic.Truthtable.isop}) to per-cube arrays of positive and
    negative literal vectors. *)

val cover_cubes : cover -> int

val eval_cover :
  cover ->
  dst:Logic.Bitvec.words ->
  scratch:Logic.Bitvec.words ->
  lo:int ->
  len:int ->
  unit
(** Writes the cover's value to words [lo, lo + len) of [dst] and uses
    the same words of [scratch], a vector of [dst]'s size, for products
    after the first; allocates nothing. Disjoint word ranges may run
    concurrently over the same [dst] and [scratch]. Tail bits past the
    vector length may come out set: {!Logic.Bitvec.clamp} after. *)
