(** Technology-mapped netlists: instances of library gates wired by nets.

    Net 0.. are created in topological order: primary-input nets first, then
    one net per cell output. This is the form on which area, delay and the
    paper's Table 1 power figures are computed. *)

type cell = {
  gate : Cell.Genlib.gate;
  inputs : int array;  (** driving nets, one per gate pin *)
  output : int;
}

type t = {
  lib : Cell.Genlib.t;
  num_nets : int;
  pi_nets : (string * int) array;
  po_nets : (string * int) array;
  const_nets : (int * bool) array;
      (** rail-tied nets (constant primary outputs after optimization) *)
  cells : cell array;  (** topological order *)
}

val num_gates : t -> int
val area : t -> float

val arrival_times : t -> float array
(** Per-net arrival time (PIs at 0). *)

val delay : t -> float
(** Critical-path delay to the latest primary output, seconds. *)

val net_loads : ?wire_cap_per_fanout:float -> t -> float array
(** Per-net capacitive load: the driver's intrinsic output capacitance plus
    the input capacitance of every driven pin; primary outputs additionally
    drive one inverter-equivalent load. [wire_cap_per_fanout] adds a lumped
    wire capacitance per driven pin (0 by default — the paper ignores
    interconnect; ablation A6 measures the sensitivity of its conclusions
    to that simplification). *)

val gate_histogram : t -> (string * int) list
(** Cell usage count by gate name, descending. *)

val simulate : ?domains:int -> t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** Per-net values given one stimulus vector per primary input: one
    whole vector per net ({!net_vectors}), so its memory grows with the
    pattern count, evaluated in one loop on the calling domain. {!check}
    (the flow's verify stage) and the tests use it; {!Estimate.run}
    sweeps the same kernel over blocks of words instead, and
    {!Seqmap.estimate} over one word per cycle. [?domains] stays only
    because [perfbench/perfbench.ml] passes it; any value but 1 raises
    [Invalid_argument]. *)

(** {1 Cover kernel} *)

type lowered
(** Every cell's cover lowered onto one set of per-net word buffers. *)

val net_vectors :
  ?inputs:Logic.Bitvec.t array -> t -> patterns:int -> Logic.Bitvec.t array * lowered
(** The per-net vectors of [patterns] bits that {!simulate} evaluates,
    indexed by net, and every cell's ISOP cover (computed once per gate
    name) lowered onto their words: a cell reads its input nets' vectors
    and writes its output net's. Primary input [i] gets [inputs.(i)]
    (fresh vectors when [inputs] is omitted), every cell output a fresh
    vector, the nets tied high one shared all-ones vector and every other
    net one shared all-zero vector. *)

val eval_range : lowered -> scratch:Logic.Bitvec.words -> lo:int -> len:int -> unit
(** Evaluates the cells in topological order over words [lo, lo + len)
    of their buffers, with [scratch] a buffer of the same size; allocates
    nothing. Tail bits past the patterns may come out set. *)

val cube_count : lowered -> int
(** Cubes evaluated per word: the sum of the cells' cover sizes. *)

val check : t -> Nets.Netlist.t -> patterns:int -> seed:int64 -> bool
(** Random co-simulation of the mapped netlist against a reference netlist
    with matching PI/PO names: true when all sampled outputs agree. The
    verdict is deterministic in [seed]. *)

val pp_stats : Format.formatter -> t -> unit
