(** Activity factors (Section 3 of the paper).

    For stand-alone gates the paper uses the combinational definition: the
    activity factor is the fraction of input combinations whose output
    polarity differs from the majority polarity — 25 % for 2-input NAND/NOR
    (one combination out of four) and 50 % for 2-input XOR. For mapped
    netlists, switching activity comes from random-pattern simulation
    ({!Nets.Sim.toggle_rate}) instead. *)

val gate_alpha : Logic.Truthtable.t -> float
(** [min(#offset, #onset) / 2^n] for the gate's output function. *)

val toggle_alpha : Logic.Truthtable.t -> float
(** Temporal definition for reference: probability that two consecutive
    uniform input vectors produce different outputs, [2 p (1-p)]. *)
