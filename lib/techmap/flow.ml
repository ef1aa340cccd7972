module E = Runtime.Cnt_error
module T = Runtime.Telemetry

type t = {
  netlist : Nets.Netlist.t;
  wellformed : Nets.Check.report;
  aig : Aigs.Aig.t;
  optimized : Aigs.Aig.t;
  results : (Mapped.t * Estimate.report) list;
}

let run ?domains ?patterns ?seed ~name tables source =
  E.protect ~stage:E.Netlist @@ fun () ->
  let netlist = T.with_span "flow.source" source in
  let wellformed = T.with_span "flow.check" (fun () -> Nets.Check.check_exn netlist) in
  let aig = T.with_span "flow.aig" (fun () -> Aigs.Aig.of_netlist netlist) in
  let optimized = T.with_span "synth.resyn2rs" (fun () -> Aigs.Opt.resyn2rs aig) in
  let for_table ml =
    let lib = (Matchlib.library ml).Cell.Genlib.name in
    try
      let mapped = Mapper.map ml optimized in
      T.with_span "flow.verify" (fun () ->
          if not (Mapped.check mapped netlist ~patterns:512 ~seed:99L) then
            E.failf E.Techmap E.Mismatch "%s mapped with %s is not equivalent to its source"
              name lib);
      (mapped, Estimate.run ?domains ?patterns ?seed mapped)
    with exn ->
      let e = E.of_exn ~stage:E.Techmap exn in
      E.raise_error (E.with_context e [ ("circuit", name); ("library", lib) ])
  in
  { netlist; wellformed; aig; optimized; results = List.map for_table tables }
