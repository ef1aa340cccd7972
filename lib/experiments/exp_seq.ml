module S = Techmap.Seqmap

type row = { library : string; report : S.report }

let run ?(data_width = 8) ~cycles () =
  List.map
    (fun lib ->
      let ml = Techmap.Matchlib.build lib in
      let seq = Circuits.Crc.generate ~data_width () in
      { library = lib.Cell.Genlib.name; report = S.estimate ~cycles ml seq })
    (Cell.Genlib.libraries ())

let print ppf rows =
  Report.render ppf
    {
      Report.title =
        "E12 (extension): clocked CRC-32 engine (8 bits/cycle), registers and clock included";
      headers =
        [|
          "Library"; "Gates"; "Regs"; "Area (T)"; "Min period (ps)"; "Fmax (GHz)";
          "Comb (uW)"; "Clock (uW)"; "Regs (uW)"; "Total (uW)"; "E/cycle (fJ)";
        |];
      rows =
        List.map
          (fun r ->
            let p = r.report in
            [|
              r.library;
              string_of_int p.S.gates;
              string_of_int p.S.registers;
              Report.f1 (p.S.comb_area +. p.S.reg_area);
              Report.f1 (p.S.min_period *. 1e12);
              Report.f2 (1.0 /. p.S.min_period /. 1e9);
              Report.f2 (p.S.comb_power.Techmap.Estimate.total *. 1e6);
              Report.f2 (p.S.clock_power *. 1e6);
              Report.f2 ((p.S.reg_internal_power +. p.S.reg_leak_power) *. 1e6);
              Report.f2 (p.S.total *. 1e6);
              Report.f2 (p.S.epc *. 1e15);
            |])
          rows;
    };
  match
    ( List.find_opt (fun r -> r.library = "cntfet-generalized") rows,
      List.find_opt (fun r -> r.library = "cmos") rows )
  with
  | Some gen, Some cmos ->
      Format.fprintf ppf
        "Generalized ambipolar vs CMOS with the clock running: %s less energy per cycle, %s higher Fmax.@."
        (Report.pct (1.0 -. (gen.report.S.epc /. cmos.report.S.epc)))
        (Report.times (cmos.report.S.min_period /. gen.report.S.min_period))
  | _ -> ()

let scalars rows =
  List.concat_map
    (fun r ->
      [
        (r.library ^ ".gates", float_of_int r.report.Techmap.Seqmap.gates);
        (r.library ^ ".epc_fJ", r.report.Techmap.Seqmap.epc *. 1e15);
        (r.library ^ ".clock_power_uW", r.report.Techmap.Seqmap.clock_power *. 1e6);
      ])
    rows
