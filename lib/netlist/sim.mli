(** 64-way parallel bit simulation of netlists.

    Input vectors are packed 64 per machine word, and the whole netlist is
    evaluated with word-level logic operations, one whole vector per node.
    It serves verification (the flow's 512-pattern co-simulation), the
    single-cycle reference {!Seq.step} and the experiments that need node
    values. The power estimates hold no vector whole: the 640 K-pattern
    one ({!Techmap.Estimate.run}) sweeps blocks of words through this
    module's cover kernel and stimulus fill ({!fill_stimulus}), and is the
    only sweep that runs on more than one domain; the clocked one
    ({!Techmap.Seqmap.estimate}) runs the same cover kernel on one word
    per net and cycle.

    The netlist is first lowered to a flat instruction stream over the
    unboxed word buffers (every gate but XOR/XNOR becomes a {!cover}; no
    allocation in the inner loop), then evaluated over every word in one
    loop on the calling domain. *)

type result = {
  num_patterns : int;
  node_values : Logic.Bitvec.t array;  (** indexed by node id *)
}

val run : Netlist.t -> Logic.Bitvec.t array -> result
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
    filling vector 0 word-by-word, then vector 1, ... [?domains] stays
    only because [perfbench/perfbench.ml] passes it; any value but 1
    raises [Invalid_argument]. *)

val fill_stimulus :
  seed:int64 ->
  words:int ->
  input:int ->
  lo:int ->
  len:int ->
  Logic.Bitvec.words ->
  at:int ->
  unit
(** [fill_stimulus ~seed ~words ~input ~lo ~len dst ~at] writes words
    [lo, lo + len) of input [input]'s vector in {!random_stimulus}'s
    stimulus of [words]-word vectors (draws [input * words + lo] onward)
    to words [at, at + len) of [dst]. Tail bits past the patterns come
    out random. {!random_stimulus} fills its vectors through it, and a
    streaming caller fills one block of words at a time. *)

val run_random : ?seed:int64 -> Netlist.t -> int -> result
(** [run_random t n] simulates [n] uniform random patterns (deterministic
    given [seed], default [42L]). *)

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
    after the first; allocates nothing. Tail bits past the vector length
    may come out set: {!Logic.Bitvec.clamp} after. *)
