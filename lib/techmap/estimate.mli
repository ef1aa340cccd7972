(** Netlist-level power estimation (Section 4 of the paper).

    The mapped netlist is simulated with uniform random patterns (the paper
    uses 640 K); per-net toggle rates drive the dynamic power, per-net
    signal probabilities drive the expected static and gate-tunneling
    leakage of every cell through the characterized per-input-vector
    currents (input independence is assumed when weighting vectors, a
    standard first-order approximation). *)

type report = {
  gates : int;
  area : float;
  delay : float;  (** s *)
  dynamic : float;  (** W *)
  short_circuit : float;
  static : float;
  gate_leak : float;
  total : float;
  edp : float;  (** J·s, (P_T / f) · delay *)
}

val default_patterns : int
(** 640_000, as in the paper. *)

val run :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  ?wire_cap_per_fanout:float ->
  Mapped.t ->
  report
(** [wire_cap_per_fanout] adds lumped interconnect capacitance per driven
    pin (default 0, the paper's assumption). The Monte-Carlo sweep shards
    across [?domains] (default {!Runtime.Dpool.default_domains});
    reported figures are bit-identical for any domain count. *)

val static_components : Mapped.t -> probs:(int -> float) -> float * float
(** [(static, gate_leak)] powers in W of every cell, weighting each cell's
    characterized per-input-vector currents by the given per-net
    1-probabilities (independence assumption). [probs] is called once per
    net that drives a cell pin. Shared by the combinational and the
    sequential estimators. *)

val pp_report : Format.formatter -> report -> unit

val pp_row : Format.formatter -> string * report -> unit
(** One Table-1-style row: name, gates, delay (ps), P_D, P_S, P_T (uW),
    EDP (1e-24 J·s). *)

val run_blif :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  lib:Cell.Genlib.t ->
  string ->
  (report, Runtime.Cnt_error.t) result
(** Checked end-to-end pipeline over BLIF {e text}: parse, well-formedness
    check ({!Nets.Check.check}), AIG construction, [resyn2rs], matchlib
    build, mapping, then {!run}. Used by [cntpower serve],
    whose requests carry the netlist inline. Every failure — parse error,
    combinational loop, unmapped node, non-finite power — is a typed
    error, never an exception. *)
