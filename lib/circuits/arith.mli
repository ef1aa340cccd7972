(** Arithmetic building blocks over netlists.

    A bus is an array of node ids, least significant bit first. These
    generators produce the XOR-rich datapath structures (adders, parity
    trees, comparators) that the paper's benchmark set exercises. *)

type bus = int array

val constant : Nets.Netlist.t -> bool -> int
val input_bus : Nets.Netlist.t -> string -> int -> bus
val output_bus : Nets.Netlist.t -> string -> bus -> unit

val full_adder : Nets.Netlist.t -> int -> int -> int -> int * int
(** [(sum, carry)] *)

val ripple_adder : Nets.Netlist.t -> ?carry_in:int -> bus -> bus -> bus * int
(** Equal-width buses; returns [(sum_bus, carry_out)]. *)

val subtractor : Nets.Netlist.t -> bus -> bus -> bus * int
(** Two's complement [a - b]; second result is the borrow-free flag
    (carry out). *)

val parity_tree : Nets.Netlist.t -> int array -> int
(** XOR reduction. *)

val and_tree : Nets.Netlist.t -> int array -> int
val or_tree : Nets.Netlist.t -> int array -> int

val equal_comparator : Nets.Netlist.t -> bus -> bus -> int
val less_than : Nets.Netlist.t -> bus -> bus -> int
(** Unsigned [a < b]. *)

val mux_bus : Nets.Netlist.t -> int -> bus -> bus -> bus
(** [mux_bus t s a b] is bitwise [if s then b else a]. *)

val mux_tree : Nets.Netlist.t -> bus -> bus array -> bus
(** [mux_tree t sel choices]: select among [2^|sel|] equal-width buses. *)

val bitwise : Nets.Netlist.t -> Nets.Netlist.op -> bus -> bus -> bus

val decoder : Nets.Netlist.t -> bus -> int array
(** One-hot decode: [2^width] outputs. *)
