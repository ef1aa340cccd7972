module B = Logic.Bitvec
module G = Cell.Genlib

type report = {
  gates : int;
  area : float;
  delay : float;
  dynamic : float;
  short_circuit : float;
  static : float;
  gate_leak : float;
  total : float;
  edp : float;
}

let default_patterns = 640_000

(* Expected per-vector current of a cell assuming independent inputs with
   the given per-pin probabilities of being 1. *)
let expected_current probs by_vector =
  let pins = Array.length probs in
  let total = ref 0.0 in
  for v = 0 to (1 lsl pins) - 1 do
    let p = ref 1.0 in
    for j = 0 to pins - 1 do
      p := !p *. if (v lsr j) land 1 = 1 then probs.(j) else 1.0 -. probs.(j)
    done;
    total := !total +. (!p *. by_vector.(v))
  done;
  !total

module T = Runtime.Telemetry

let static_components (m : Mapped.t) ~probs =
  let tech = m.Mapped.lib.G.tech in
  let vdd = tech.Spice.Tech.vdd in
  let char_cache : (string, float array * float array) Hashtbl.t = Hashtbl.create 64 in
  let char_of gate =
    let name = gate.G.cell.Cell.Cells.name in
    match Hashtbl.find_opt char_cache name with
    | Some c -> c
    | None ->
        let pins = gate.G.cell.Cell.Cells.pins in
        let gp = Power.Pattern.analyze gate.G.impl ~pins in
        let ioff = Power.Leakage.gate_ioff tech gp in
        let ig = Power.Leakage.gate_ig tech gp in
        Hashtbl.replace char_cache name (ioff, ig);
        (ioff, ig)
  in
  (* A net feeds several pins; ask [probs] once per net (NaN = not yet). *)
  let net_probs = Array.make m.Mapped.num_nets Float.nan in
  let prob net =
    if Float.is_nan net_probs.(net) then net_probs.(net) <- probs net;
    net_probs.(net)
  in
  let static = ref 0.0 and gate_leak = ref 0.0 in
  Array.iter
    (fun (c : Mapped.cell) ->
      let ioff_by_vector, ig_by_vector = char_of c.Mapped.gate in
      let pin_probs = Array.map prob c.Mapped.inputs in
      static := !static +. (expected_current pin_probs ioff_by_vector *. vdd);
      gate_leak := !gate_leak +. (expected_current pin_probs ig_by_vector *. vdd))
    m.Mapped.cells;
  (!static, !gate_leak)

let run ?domains ?(patterns = default_patterns) ?(seed = 42L)
    ?(wire_cap_per_fanout = 0.0) (m : Mapped.t) =
  (* Free the previous estimate's per-net vectors (patterns / 8 bytes
     each) before this one allocates its own. Synthesis and mapping
     allocate too little between two estimates for the major GC to reach
     them, so a run of estimates (Table 1) would hold two sets at once:
     130 MB peak instead of 108 MB at 131 072 patterns, for about 6 ms
     per call. The streaming estimator on ROADMAP.md, which keeps no
     per-net vectors, deletes this line. *)
  Gc.full_major ();
  T.with_span "techmap.estimate" (fun () ->
  let tech = m.Mapped.lib.G.tech in
  let vdd = tech.Spice.Tech.vdd in
  let f = Spice.Tech.frequency in
  let stimulus =
    Nets.Sim.random_stimulus ?domains ~seed
      ~inputs:(Array.length m.Mapped.pi_nets) ~patterns ()
  in
  let t0 = if T.enabled () then T.now () else 0.0 in
  let values =
    T.with_span "estimate.simulate" (fun () ->
        Mapped.simulate ?domains m stimulus)
  in
  if T.enabled () then begin
    let dt = T.now () -. t0 in
    T.count "estimate.patterns_simulated" patterns;
    T.count "estimate.cells_simulated" (Array.length m.Mapped.cells);
    if dt > 0.0 then
      T.observe "estimate.patterns_per_s" (float_of_int patterns /. dt)
  end;
  let toggle net =
    if patterns <= 1 then 0.0
    else float_of_int (B.transitions values.(net)) /. float_of_int (patterns - 1)
  in
  let prob net = float_of_int (B.popcount values.(net)) /. float_of_int patterns in
  let loads = Mapped.net_loads ~wire_cap_per_fanout m in
  (* Dynamic power: every net that toggles charges its load. *)
  let dynamic = ref 0.0 in
  for net = 0 to m.Mapped.num_nets - 1 do
    dynamic := !dynamic +. (toggle net *. loads.(net) *. f *. vdd *. vdd)
  done;
  (* Static and gate leakage from the per-gate characterization. *)
  let static, gate_leak =
    T.with_span "estimate.characterize" (fun () -> static_components m ~probs:prob)
  in
  let static = ref static and gate_leak = ref gate_leak in
  let short_circuit = Spice.Tech.short_circuit_fraction *. !dynamic in
  let total = !dynamic +. short_circuit +. !static +. !gate_leak in
  let delay = Mapped.delay m in
  {
    gates = Mapped.num_gates m;
    area = Mapped.area m;
    delay;
    dynamic = !dynamic;
    short_circuit;
    static = !static;
    gate_leak = !gate_leak;
    total;
    edp = Power.Powermodel.edp ~total_power:total ~delay ();
  })

let pp_report ppf r =
  Format.fprintf ppf
    "gates=%d area=%g delay=%.1fps PD=%.3guW PSC=%.3guW PS=%.3guW PG=%.3guW PT=%.3guW EDP=%.3g(1e-24 J.s)"
    r.gates r.area (r.delay *. 1e12) (r.dynamic *. 1e6) (r.short_circuit *. 1e6)
    (r.static *. 1e6) (r.gate_leak *. 1e6) (r.total *. 1e6) (r.edp *. 1e24)

let pp_row ppf (name, r) =
  Format.fprintf ppf "%-8s %5d %6.0f %8.2f %6.2f %8.2f %8.2f" name r.gates
    (r.delay *. 1e12) (r.dynamic *. 1e6) (r.static *. 1e6) (r.total *. 1e6)
    (r.edp *. 1e24)

(* Checked one-call pipeline from BLIF text to a report, shared by the
   [cntpower serve] daemon and anything else that holds a netlist as
   text rather than a file. Every stage failure comes back typed. *)
let run_blif ?domains ?patterns ?seed ~lib text =
  let module E = Runtime.Cnt_error in
  let ( let* ) = Result.bind in
  let* nl = Nets.Blif.parse_string text in
  let* _wf = Nets.Check.check nl in
  let* mapped =
    match
      E.protect ~stage:E.Techmap (fun () ->
          let aig = Aigs.Aig.of_netlist nl in
          let opt = Aigs.Opt.resyn2rs aig in
          let ml = Matchlib.build lib in
          Mapper.map_checked ml opt)
    with
    | Ok r -> r
    | Error _ as e -> e
  in
  E.protect ~stage:E.Power (fun () -> run ?domains ?patterns ?seed mapped)
