(** Experiment E12 (extension): clocked circuits.

    The paper evaluates combinational blocks; this extension closes the
    loop for registered designs. A parallel CRC-32 engine (pure XOR trees
    feeding 32 registers — the extreme case of the paper's "circuits that
    contain binate operations") is mapped with the three libraries
    including transmission-gate flip-flops; power is estimated by
    cycle-accurate simulation of the mapped netlist so the state
    distribution (not a uniform-input assumption) drives the activity, and
    the clock tree, register switching and register leakage are charged
    explicitly. The ambipolar register needs no complement-clock rail,
    which shows up directly in the clock power. *)

type row = { library : string; report : Techmap.Seqmap.report }

val run : ?data_width:int -> cycles:int -> unit -> row list
(** Map the CRC engine ([data_width] message bits per clock, default 8)
    with every library and estimate its power over [cycles] clock cycles. *)

val print : Format.formatter -> row list -> unit

val scalars : row list -> (string * float) list
(** Manifest scalars per library: gate count, energy per cycle (fJ), clock
    power (uW). *)
