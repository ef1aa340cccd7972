(** Fault-injection harness.

    A fault case perturbs an input (NaN device parameter, truncated BLIF,
    zero-capacitance node, combinational loop, ...) and runs a slice of the
    pipeline on it. The harness classifies what happened:

    - {!verdict.Graceful}: the pipeline returned a typed {!Cnt_error.t} —
      the desired behavior under a fault;
    - {!verdict.Survived}: the pipeline absorbed the perturbation and
      produced a value (acceptable when the fault is benign);
    - {!verdict.Escaped}: a raw exception escaped — a robustness bug.

    Tests assert that no case yields [Escaped]. *)

type verdict =
  | Graceful of Cnt_error.t
  | Survived
  | Escaped of string  (** the escaped exception, printed *)

type outcome = { name : string; description : string; verdict : verdict }

val inject :
  name:string -> description:string -> (unit -> ('a, Cnt_error.t) result) -> outcome
(** Run one fault case. Exceptions raised by the thunk (including
    {!Cnt_error.Error}, which counts as [Escaped] — hardened entry points
    must return [result], not raise) are caught and classified. *)

val graceful : outcome -> bool
(** True for [Graceful _] — the pipeline refused the fault with a typed
    error. *)

val contained : outcome -> bool
(** True unless the verdict is [Escaped _]. *)

val summarize : Format.formatter -> outcome list -> int
(** Print one line per outcome and return the number of [Escaped] cases. *)

(** {2 Input perturbation helpers} *)

val corrupt_float : [ `Nan | `Pos_inf | `Neg_inf | `Zero | `Negate ] -> float -> float

val truncate_text : fraction:float -> string -> string
(** Keep the leading [fraction] (0..1) of the text — simulates a partially
    written file. *)
