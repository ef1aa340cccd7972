(** Experiment E1: Table 1 — logic synthesis and technology mapping of the
    12-circuit suite with the three libraries, followed by random-pattern
    power estimation.

    Each circuit runs {!Techmap.Flow} (Section 4 of the paper) under a
    [circuit.<name>] span: generate -> check -> AIG -> resyn2rs -> map
    with each genlib -> verify -> estimate power with random patterns at
    f = 1 GHz, V_DD = 0.9 V. *)

type row = {
  name : string;
  description : string;
  results : (string * Techmap.Estimate.report) list;
      (** keyed by library name, in {!Cell.Genlib.libraries} order
          (built-ins in Table 1 column order, then registered families) *)
}

type summary = {
  rows : row list;
  averages : (string * Techmap.Estimate.report) list;  (** arithmetic means *)
  improvement_vs_cmos : (string * (string * float) list) list;
      (** per non-CMOS library: metric name -> ratio or saving *)
}

val run :
  ?patterns:int ->
  ?seed:int64 ->
  ?circuits:Circuits.Suite.entry list ->
  ?verify:bool ->
  unit ->
  summary
(** Defaults: 640 K patterns, estimation seed 42, the full 12-circuit
    suite. Raises {!Runtime.Cnt_error.Error} with the flow's typed error,
    [techmap/mismatch] when a mapping fails its co-simulation. [?verify]
    stays only because [perfbench/perfbench.ml] passes [~verify:true];
    [~verify:false] is refused. *)

val print : Format.formatter -> summary -> unit
(** Render the Table-1-shaped report (gate count, delay, P_D, P_S, P_T, EDP
    per library, plus the average and improvement rows). *)

val scalars : summary -> (string * float) list
(** Manifest scalars: per-library averages ([<lib>.total_uW], ...) and the
    improvement-vs-CMOS metrics ([<lib>.vs_cmos.pt], ...). *)
