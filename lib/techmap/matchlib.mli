(** Boolean match tables for technology mapping.

    Every library gate function is expanded over all input permutations and
    input polarities; the resulting truth tables are hashed so that a cut
    function found during mapping resolves to the gates that realize it (and
    how the cut leaves bind to gate pins) in O(1). Gates with more than
    {!max_pins} pins are excluded from matching (none exist in the shipped
    libraries). *)

type candidate = {
  gate : Cell.Genlib.gate;
  perm : int array;  (** pin [j] of the gate connects to leaf [perm.(j)] *)
  inv_mask : int;  (** bit [j]: pin [j] takes the complemented leaf value *)
}

type t

val max_pins : int
(** 6: the largest supported cut/gate size. *)

val build : Cell.Genlib.t -> t
(** Precompute the match tables for a library. The library must contain an
    inverter (cell "INV"). Candidates are enumerated in a fixed order —
    gates in library order, pin permutations lexicographic, [inv_mask]
    ascending — which decides every key's list (see {!lookup}). Building
    the shipped libraries takes milliseconds, so every process builds its
    own. *)

val library : t -> Cell.Genlib.t
val inverter : t -> Cell.Genlib.gate

val lookup : t -> Logic.Truthtable.t -> candidate list
(** Candidates realizing exactly the given function (over its [nvars]
    variables, all in the support). At most four candidates: the three
    smallest by area in ascending area order (equal areas: the later
    enumerated first), preceded by the fastest candidate when it is not
    among those three. A candidate that is no smaller and no faster than
    one already listed is never added, so of equally good candidates the
    first enumerated stays. The mapper keeps the first of equally good
    matches, so this order is part of every mapped result. *)

val size : t -> int
(** Total number of table entries (for reporting). *)
