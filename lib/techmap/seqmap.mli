(** Mapping and power estimation of sequential circuits.

    The combinational core is technology-mapped as usual (register Q
    outputs become mapped primary inputs, D inputs become extra primary
    outputs, so the register boundary survives covering). Power is then
    estimated by cycle-accurate simulation of the {e mapped} netlist — the
    state distribution, not a uniform-input assumption, drives the toggle
    rates — and the register model adds clock-tree load, internal
    switching, and register leakage. *)

type report = {
  gates : int;  (** combinational cells *)
  registers : int;
  comb_area : float;  (** transistors *)
  reg_area : float;
  min_period : float;  (** critical path + register clk-to-q and setup, s *)
  comb_power : Estimate.report;  (** combinational components at 1 GHz *)
  clock_power : float;  (** W: clock net + internal clock-derived switching *)
  reg_internal_power : float;  (** W: state-toggle internal switching *)
  reg_leak_power : float;  (** W *)
  total : float;  (** W, everything *)
  epc : float;  (** energy per clock cycle, J *)
}

val map_seq : Matchlib.t -> Nets.Seq.t -> Mapped.t * (string * int * int) list
(** Map the core; returns the mapped netlist plus, per register, its name
    and the indices of its Q net and D net in the mapped netlist. Raises
    [Runtime.Cnt_error.Error] ([Techmap]/[Missing_signal], naming the net)
    if the mapping lost a register's Q input or D output. *)

val estimate : ?cycles:int -> ?seed:int64 -> Matchlib.t -> Nets.Seq.t -> report
(** Default 10_000 cycles x 64 streams (= the paper's 640 K samples).

    The mapping is lowered once onto one word per net
    ({!Mapped.net_vectors}), the 64 streams bit-sliced and every register
    at 0. Each cycle draws one word per true input ([Prng.create seed],
    [pi_nets] order), evaluates the cells ({!Mapped.eval_range}), counts
    every net's ones and its toggles against the cycle before, and clocks
    all registers at once: every D word is read before any Q word is
    written. The loop runs under the span [seqmap.cycles] and allocates
    no vector. {!Estimate.of_activity} turns the counts, with the
    registers' D and Q capacitances added to the loads, into
    [comb_power]. *)

val pp_report : Format.formatter -> report -> unit
