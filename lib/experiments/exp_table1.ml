module E = Techmap.Estimate
module G = Cell.Genlib
module Err = Runtime.Cnt_error
module F = Techmap.Flow

type row = { name : string; description : string; results : (string * E.report) list }

type summary = {
  rows : row list;
  averages : (string * E.report) list;
  improvement_vs_cmos : (string * (string * float) list) list;
}

module T = Runtime.Telemetry

let run ?(patterns = E.default_patterns) ?(seed = 42L) ?(circuits = Circuits.Suite.all) ?(verify = true) () =
  if not verify then
    Err.failf Err.Experiment Err.Validation_error
      "Table 1 verifies every mapping; ~verify:false is refused";
  let matchlibs = List.map Techmap.Matchlib.build (G.libraries ()) in
  let rows =
    List.map
      (fun { Circuits.Suite.name; description; generate } ->
        T.with_span ("circuit." ^ name) (fun () ->
        let flow = Err.get_exn (F.run ~patterns ~seed ~name matchlibs generate) in
        let keyed ((m : Techmap.Mapped.t), r) = (m.Techmap.Mapped.lib.G.name, r) in
        { name; description; results = List.map keyed flow.F.results }))
      circuits
  in
  let lib_names = List.map (fun ml -> (Techmap.Matchlib.library ml).G.name) matchlibs in
  let mean sel name =
    let values = List.map (fun r -> sel (List.assoc name r.results)) rows in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
  in
  let averages =
    List.map
      (fun name ->
        ( name,
          {
            E.gates = int_of_float (mean (fun r -> float_of_int r.E.gates) name +. 0.5);
            area = mean (fun r -> r.E.area) name;
            delay = mean (fun r -> r.E.delay) name;
            dynamic = mean (fun r -> r.E.dynamic) name;
            short_circuit = mean (fun r -> r.E.short_circuit) name;
            static = mean (fun r -> r.E.static) name;
            gate_leak = mean (fun r -> r.E.gate_leak) name;
            total = mean (fun r -> r.E.total) name;
            edp = mean (fun r -> r.E.edp) name;
          } ))
      lib_names
  in
  let cmos_avg = List.assoc "cmos" averages in
  let improvement_vs_cmos =
    List.filter_map
      (fun (name, avg) ->
        if name = "cmos" then None
        else
          Some
            ( name,
              [
                ("gates", 1.0 -. (float_of_int avg.E.gates /. float_of_int cmos_avg.E.gates));
                ("delay", cmos_avg.E.delay /. avg.E.delay);
                ("pd", 1.0 -. (avg.E.dynamic /. cmos_avg.E.dynamic));
                ("ps", 1.0 -. (avg.E.static /. cmos_avg.E.static));
                ("pt", 1.0 -. (avg.E.total /. cmos_avg.E.total));
                ("edp", cmos_avg.E.edp /. avg.E.edp);
              ] ))
      averages
  in
  { rows; averages; improvement_vs_cmos }

let print ppf summary =
  let metric_cells (r : E.report) =
    [
      string_of_int r.E.gates;
      Report.f1 (r.E.delay *. 1e12);
      Report.f2 (r.E.dynamic *. 1e6);
      Report.f2 (r.E.static *. 1e6);
      Report.f2 (r.E.total *. 1e6);
      Report.f2 (r.E.edp *. 1e24);
    ]
  in
  let lib_names = List.map fst summary.averages in
  let headers =
    Array.of_list
      ("Circuit" :: "Function"
      :: List.concat_map
           (fun lib ->
             let tag =
               match lib with
               | "cntfet-generalized" -> "GEN"
               | "cntfet-conventional" -> "CNV"
               | "cmos" -> "CMOS"
               | other -> other
             in
             List.map
               (fun m -> tag ^ ":" ^ m)
               [ "No."; "Delay"; "PD"; "PS"; "PT"; "EDP" ])
           lib_names)
  in
  let rows =
    List.map
      (fun r ->
        Array.of_list
          (r.name :: r.description
          :: List.concat_map (fun lib -> metric_cells (List.assoc lib r.results)) lib_names))
      summary.rows
  in
  let avg_row =
    Array.of_list
      ("Average" :: ""
      :: List.concat_map (fun lib -> metric_cells (List.assoc lib summary.averages)) lib_names)
  in
  Report.render ppf
    {
      Report.title =
        "E1 / Table 1: gate count, delay (ps), PD (uW), PS (uW), PT (uW), EDP (1e-24 J.s)";
      headers;
      rows = rows @ [ avg_row ];
    };
  List.iter
    (fun (lib, metrics) ->
      Format.fprintf ppf "Improvement of %s vs CMOS: " lib;
      List.iter
        (fun (metric, v) ->
          match metric with
          | "delay" | "edp" -> Format.fprintf ppf "%s %s  " metric (Report.times v)
          | _ -> Format.fprintf ppf "%s %s  " metric (Report.pct v))
        metrics;
      Format.fprintf ppf "@.")
    summary.improvement_vs_cmos;
  Format.fprintf ppf
    "(paper: GEN vs CMOS gates -24.2%%, delay 7.1x, PD -53.4%%, PS -94.5%%, PT -57.1%%, EDP 19.5x;@.";
  Format.fprintf ppf
    " CNV vs CMOS gates -3.2%%, delay 5.1x, PD -30.9%%, PS -92.7%%, PT -36.7%%, EDP 8.1x)@."

(* The headline claims of Table 1 as manifest scalars: per-library averages
   plus the improvement-vs-CMOS percentages (PT saving, EDP ratio). *)
let scalars summary =
  let averages =
    List.concat_map
      (fun (lib, (avg : E.report)) ->
        [
          (lib ^ ".gates", float_of_int avg.E.gates);
          (lib ^ ".delay_ps", avg.E.delay *. 1e12);
          (lib ^ ".total_uW", avg.E.total *. 1e6);
          (lib ^ ".edp_1e-24Js", avg.E.edp *. 1e24);
        ])
      summary.averages
  in
  let improvements =
    List.concat_map
      (fun (lib, metrics) ->
        List.map (fun (m, v) -> (lib ^ ".vs_cmos." ^ m, v)) metrics)
      summary.improvement_vs_cmos
  in
  averages @ improvements
