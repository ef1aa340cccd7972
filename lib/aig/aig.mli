(** Structurally hashed And-Inverter Graphs.

    The subject-graph representation used by the optimizer and the technology
    mapper (our substitute for ABC's AIG package). Node 0 is the constant
    false; primary inputs follow; AND nodes come last, in topological order.
    A {e literal} is [2 * node + complement_bit]. *)

type t

type lit = int

val const_false : lit
val const_true : lit

val lit_of_node : int -> bool -> lit
val node_of_lit : lit -> int
val is_complemented : lit -> bool
val lit_not : lit -> lit

val create : unit -> t

val add_input : t -> string -> lit
(** All inputs must be added before the first AND node. *)

val mk_and : t -> lit -> lit -> lit
(** Structurally hashed conjunction with constant/idempotence folding. *)

val mk_or : t -> lit -> lit -> lit
val mk_xor : t -> lit -> lit -> lit
val mk_mux : t -> lit -> lit -> lit -> lit
(** [mk_mux t s a b] is [if s then b else a]. *)

val mk_and_list : t -> lit list -> lit
val mk_or_list : t -> lit list -> lit

val add_output : t -> string -> lit -> unit

val num_nodes : t -> int
(** Constant + inputs + ANDs. *)

val num_inputs : t -> int
val num_ands : t -> int
val num_outputs : t -> int

val input_lits : t -> lit array
val input_name : t -> int -> string
val outputs : t -> (string * lit) array

val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit
(** Fanins of an AND node (node id in [num_inputs+1 .. num_nodes-1]). *)

val is_and : t -> int -> bool
val is_input : t -> int -> bool

val levels : t -> int array
(** Per-node logic depth (inputs at 0). *)

val depth : t -> int
(** Max level over output nodes. *)

val fanout_counts : t -> int array
(** Number of AND-node and output references to each node. *)

val build_expr : t -> Logic.Expr.t -> lit array -> lit
(** [build_expr t e leaves] instantiates expression [e] with [Var i] bound to
    [leaves.(i)]. *)

val cone_tt : t -> int -> lit array -> Logic.Truthtable.t
(** [cone_tt t node leaves] is the function of [node] in terms of the leaf
    literals (every path from [node] to an input passes through a leaf).
    At most 16 leaves. *)

val of_netlist : Nets.Netlist.t -> t
val to_netlist : t -> Nets.Netlist.t

val cleanup : t -> t
(** Copy, keeping only nodes reachable from the outputs. *)

val pp_stats : Format.formatter -> t -> unit
