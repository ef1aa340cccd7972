(** Element-level circuit netlists for DC analysis.

    Small circuits only (the paper's I_off patterns reduce to a handful of
    devices), so nodes are managed through a simple name table and the
    solver uses dense linear algebra. Node ["0"]/["gnd"] is ground. *)

type t

type node = int

val create : unit -> t

val node : t -> string -> node
(** Find or create a named node. ["0"] and ["gnd"] are the ground node. *)

val ground : node

val add_vsource : t -> node -> float -> unit
(** Ideal voltage source from the node to ground. *)

val add_resistor : t -> node -> node -> float -> unit

val add_transistor : t -> Device.kind -> d:node -> g:node -> s:node -> ?pg:node -> unit -> unit
(** Four-terminal for {!Device.Ambipolar} ([pg] required), three-terminal
    otherwise. *)

val num_nodes : t -> int

type solution

val node_voltage : solution -> node -> float

val source_current : t -> solution -> node -> float
(** Current delivered by the voltage source attached at the node (positive
    = flowing out of the source into the circuit). *)

val solve : ?max_iter:int -> ?tol:float -> t -> solution
(** Newton–Raphson nodal analysis. Raises [Runtime.Cnt_error.Error] with
    code [Convergence_failure], [Singular_matrix] or [Non_finite] when the
    iteration fails. *)

val validate : t -> (unit, Runtime.Cnt_error.t) result
(** Well-formedness of the element list: finite source voltages, positive
    finite resistances, and device model cards that pass
    {!Tech.validate}. *)

val node_currents : t -> float array -> float array
(** [node_currents t v] evaluates, for the node-voltage assignment [v]
    (indexed by node id), the current flowing {e out} of every node through
    the circuit elements. Used by {!Transient} for time integration. *)

val is_source : t -> node -> bool
(** Whether a voltage source is attached at the node. *)

val source_value : t -> node -> float
(** DC value of the source attached at the node. Raises [Not_found] if
    there is none. *)
