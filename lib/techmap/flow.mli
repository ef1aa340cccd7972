(** The synthesis-to-power flow of Section 4, the one every caller runs.
    Its stages, each a telemetry span: [flow.source], [flow.check],
    [flow.aig], [synth.resyn2rs], then per match table [techmap.map],
    [flow.verify] and [techmap.estimate]. Verify is one policy: the
    mapping is co-simulated against its source on 512 patterns at seed
    99, and a mismatch is a [techmap/mismatch] error. Every failure is a
    typed {!Runtime.Cnt_error.t}; a per-table one names the circuit and
    the library. Callers build the match tables. *)

type t = {
  netlist : Nets.Netlist.t;
  wellformed : Nets.Check.report;
  aig : Aigs.Aig.t;
  optimized : Aigs.Aig.t;  (** after [resyn2rs] *)
  results : (Mapped.t * Estimate.report) list;  (** per match table, in order *)
}

val run :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  name:string ->
  Matchlib.t list ->
  (unit -> Nets.Netlist.t) ->
  (t, Runtime.Cnt_error.t) result
(** [run ~name tables source] reads the netlist from [source] (a
    generator, a raising reader such as {!Nets.Blif.read_file}, or a
    netlist parsed earlier) and runs every stage; [name] is the circuit
    in errors. The options go to {!Estimate.run}. Stops at the first
    failing table. *)
