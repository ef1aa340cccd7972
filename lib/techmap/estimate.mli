(** Netlist-level power estimation (Section 4 of the paper).

    The mapped netlist is simulated with uniform random patterns (the paper
    uses 640 K); per-net toggle rates drive the dynamic power, per-net
    signal probabilities drive the expected static and gate-tunneling
    leakage of every cell through the characterized per-input-vector
    currents (input independence is assumed when weighting vectors, a
    standard first-order approximation).

    {b The block sweep.} {!run} never holds a net's patterns whole. It
    sweeps the pattern axis in blocks of 64 words (4 096 patterns), and
    for each block it fills the primary inputs' words from the
    counter-mode stimulus ({!Nets.Sim.fill_stimulus}), evaluates every
    cell's lowered cover on one block buffer per driven net
    ({!Mapped.net_vectors}), and folds each net's ones and transitions into
    integers while the block is in cache ({!Logic.Bitvec.popcount_words},
    {!Logic.Bitvec.transitions_words}), carrying one seam bit per net to
    the next block. Its memory is one block per net and domain, whatever
    [patterns] is.

    {b Bit identity.} Those integers are exactly what
    {!Logic.Bitvec.popcount} and {!Logic.Bitvec.transitions} give on the
    vectors {!Mapped.simulate} computes from {!Nets.Sim.random_stimulus},
    and they enter the same float expressions in the same net order, so
    a report is bit-identical to the whole-vector computation and across
    domain counts. *)

type report = {
  gates : int;
  area : float;
  delay : float;  (** s *)
  dynamic : float;  (** W *)
  short_circuit : float;
  static : float;
  gate_leak : float;
  total : float;
  edp : float;  (** J·s, (P_T / f) · delay *)
}

val default_patterns : int
(** 640_000, as in the paper. *)

val run :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  ?wire_cap_per_fanout:float ->
  Mapped.t ->
  report
(** [wire_cap_per_fanout] adds lumped interconnect capacitance per driven
    pin (default 0, the paper's assumption). The blocks are the
    {!Runtime.Dpool} units, at least 4 blocks (256 words) per domain, over
    [?domains] (default {!Runtime.Dpool.default_domains}); each domain
    allocates its buffers once, and the chunks' counts and seam bits merge
    in block order after the join, so reported figures are bit-identical
    for any domain count.

    Its span [techmap.estimate] has two children: [estimate.sweep], the
    sweep's wall on the calling domain, and [estimate.characterize].
    Under [estimate.sweep] the phases are charged once per block the
    calling domain sweeps: [estimate.stimulus], [estimate.simulate]
    (also its buffers' set-up) and [estimate.toggles] (the counts, then
    the merge). The other domains' blocks run meanwhile and are not
    charged to any span, so every span's children stay within its wall;
    the sweep's own time is the other domains' spawn and the wait for
    the last of them. Telemetry: [estimate.domains],
    [estimate.d<k>.patterns_simulated], [estimate.cube_words],
    [estimate.patterns_simulated], [estimate.cells_simulated] and
    [estimate.patterns_per_s] (over the whole sweep). *)

val static_components : Mapped.t -> probs:(int -> float) -> float * float
(** [(static, gate_leak)] powers in W of every cell, weighting each cell's
    characterized per-input-vector currents by the given per-net
    1-probabilities (independence assumption). [probs] is called once per
    net that drives a cell pin. Shared by the combinational and the
    sequential estimators. *)

val pp_report : Format.formatter -> report -> unit
