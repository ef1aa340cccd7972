(** Sequential (registered) circuits: a combinational core plus edge-
    triggered registers.

    The paper evaluates combinational blocks; real designs clock them. A
    sequential circuit here is a combinational netlist in which every
    register contributes one pseudo-input (its Q output) and designates one
    node as its D input; every register starts at 0 and all of them are
    clocked at once. {!step} gives the single-stream semantics of one
    cycle; the power estimate of the mapped circuit
    ({!Techmap.Seqmap.estimate}) clocks 64 bit-sliced streams over the
    mapping's nets. *)

type t

val create : unit -> t

val comb : t -> Netlist.t
(** The underlying combinational netlist (build through it). *)

val add_input : t -> string -> int
(** A true primary input of the sequential circuit. *)

val add_register : t -> string -> int
(** Declare a register; returns the node id of its Q output (a pseudo-input
    of the combinational core). The D input is connected later with
    {!connect}. *)

val connect : t -> string -> int -> unit
(** [connect t reg d_node]: drive register [reg] from [d_node]. Every
    register must be connected before {!registers} is called. Raises
    [Runtime.Cnt_error.Error] ([Netlist]/[Validation_error], naming the
    register) if [t] has no register [reg]. *)

val add_output : t -> string -> int -> unit

val num_registers : t -> int
val registers : t -> (string * int * int) list
(** [(name, q_node, d_node)] in declaration order. Raises
    [Runtime.Cnt_error.Error] ([Netlist]/[Validation_error], naming the
    register) if some register is unconnected. *)

val step :
  t -> state:bool array -> inputs:bool array -> bool array * bool array
(** Single-stream reference semantics: [(outputs, next_state)] for one
    cycle, registers in {!registers} order, true inputs in declaration
    order, outputs in declaration order. The tests check the mapped
    circuit's cycles against it. *)
