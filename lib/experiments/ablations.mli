(** Ablation studies for the design choices called out in DESIGN.md.

    A2 — mapping objective: delay-oriented vs area-flow-oriented covering.
    A3 — optimization script: raw AIG vs resyn2rs before mapping.
    A4 — cut size K: mapper quality at K = 4 / 5 / 6.
    A5 — expressive power in isolation: the generalized library with every
         XOR-embedding cell removed collapses onto the conventional library,
         separating the technology benefit from the design-style benefit.
    A6 — interconnect: the paper ignores wire capacitance; sweeping a lumped
         per-fanout wire load shows whether the generalized-vs-CMOS power
         ranking survives realistic interconnect. *)

type mapping_stats = { gates : int; area : float; delay : float }

val a3_script : ?circuit:string -> unit -> (string * mapping_stats) list
val a5_no_xor_cells : ?circuit:string -> unit -> (string * mapping_stats) list

val print : Format.formatter -> unit -> unit
(** Run all four ablations on the default circuit (C6288, the multiplier,
    where the effects are largest) and render them. *)
