(** Structured errors for the cntpower pipeline.

    Every recoverable failure in the pipeline — parse errors, solver
    non-convergence, netlist malformations, mapping dead-ends — is described
    by a {!t}: the pipeline {!stage} it arose in, a machine-readable
    {!code}, a human-readable message and a list of context key/value pairs
    (line numbers, node names, residuals, ...).

    Layers expose [_checked] entry points returning [('a, t) result]; the
    legacy raising entry points raise {!Error} so that the CLI and the
    supervisor's workers can catch one exception type at the boundary and
    translate it into an exit code or a typed result. *)

type stage =
  | Logic  (** expression / truth-table / SAT layer *)
  | Netlist  (** gate-level netlists, BLIF I/O, well-formedness checks *)
  | Aig  (** AIG construction and optimization *)
  | Techmap  (** matching, covering, mapped-netlist verification *)
  | Spice  (** device models, DC solve, transient analysis *)
  | Power  (** power characterization and estimation *)
  | Experiment  (** experiment drivers (E1-E15, ablations) *)
  | Library  (** declarative library files (genlib-plus) and the registry *)
  | Cli  (** command-line driver *)

type code =
  | Parse_error  (** malformed input text (BLIF, AIGER, genlib) *)
  | Validation_error  (** invalid parameter or circuit description *)
  | Non_finite  (** NaN or infinity where a finite number is required *)
  | Convergence_failure  (** iterative solver exhausted its budget *)
  | Singular_matrix  (** linear solve hit a (near-)singular Jacobian *)
  | Combinational_loop  (** cyclic combinational dependency *)
  | Undriven_net  (** a net is referenced but never driven *)
  | Multiply_driven_net  (** a net has more than one driver *)
  | Unmapped_node  (** technology mapping found no cover for a node *)
  | Missing_signal  (** a named signal was expected but absent *)
  | Mismatch  (** equivalence check or cross-validation failed *)
  | Unsupported  (** valid input outside the supported subset *)
  | Io_error  (** file system failure *)
  | Worker_timeout  (** a supervised worker exceeded its wall-clock watchdog *)
  | Worker_killed  (** a supervised worker died on a signal or nonzero exit *)
  | Regression  (** cross-run comparison found drift beyond tolerance *)
  | Overloaded
      (** the estimation daemon shed the request under load; retry later *)
  | Shard_quarantined
      (** a campaign shard failed for good (a non-retryable error or its
          last attempt) and was set aside; the rest of the campaign
          completed degraded *)
  | Internal  (** wrapped unexpected exception; a bug if user-visible *)

type t = {
  stage : stage;
  code : code;
  message : string;
  context : (string * string) list;  (** e.g. [("line", "12"); ("net", "y")] *)
}

exception Error of t
(** The single exception used by raising entry points of hardened layers. *)

val make : ?context:(string * string) list -> stage -> code -> string -> t

val makef :
  ?context:(string * string) list ->
  stage ->
  code ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [makef stage code fmt ...] builds an error with a formatted message. *)

val error :
  ?context:(string * string) list ->
  stage ->
  code ->
  ('a, Format.formatter, unit, ('b, t) result) format4 ->
  'a
(** [error stage code fmt ...] is [Result.Error (makef ...)]. *)

val raise_error : t -> 'a
(** Raise {!Error}. *)

val failf :
  ?context:(string * string) list ->
  stage ->
  code ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** [failf stage code fmt ...] raises {!Error} with a formatted message. *)

val with_context : t -> (string * string) list -> t
(** Append context pairs (outermost last). *)

val stage_name : stage -> string
val code_name : code -> string

val stage_of_name : string -> stage option
(** Inverse of {!stage_name}; used to revive typed errors from a wire
    payload ([cntpower serve] responses). *)

val code_of_name : string -> code option
(** Inverse of {!code_name}. *)

val pp : Format.formatter -> t -> unit
(** ["spice/convergence-failure: <message> (steps=200000, dv_max=0.002)"] *)

val to_string : t -> string

val of_exn : stage:stage -> exn -> t
(** Wrap an arbitrary exception: {!Error} payloads pass through untouched,
    [Failure]/[Invalid_argument]/[Sys_error] become typed errors in [stage],
    anything else becomes [Internal] (with the exception text preserved). *)

val protect : stage:stage -> (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting any escaping exception via {!of_exn}.
    [Stack_overflow] and [Out_of_memory] are also captured; asynchronous
    exceptions are not re-raised. *)

val get_exn : ('a, t) result -> 'a
(** [Ok x -> x], [Result.Error e -> raise (Error e)]. *)

val exit_code : t -> int
(** Distinct process exit code per error class, in 12..30 (documented in the
    README). Reserved: 0 success, 10 keep-going run with failures,
    11 strict run aborted. Supervised-worker failures use 25
    ([Worker_timeout]) and 26 ([Worker_killed]); performance-regression
    drift detected by [cntpower compare] uses 28 ([Regression]); a request
    shed by an overloaded [cntpower serve] daemon uses 29 ([Overloaded]);
    a campaign that finished with quarantined shards uses 30
    ([Shard_quarantined]). *)
