module B = Logic.Bitvec
module G = Cell.Genlib
module R = Runtime.Cnt_error
module T = Runtime.Telemetry

type report = {
  gates : int;
  registers : int;
  comb_area : float;
  reg_area : float;
  min_period : float;
  comb_power : Estimate.report;
  clock_power : float;
  reg_internal_power : float;
  reg_leak_power : float;
  total : float;
  epc : float;
}

let map_seq ml (seq : Nets.Seq.t) =
  let comb = Nets.Seq.comb seq in
  let regs = Nets.Seq.registers seq in
  (* Expose every register's D input as an extra primary output so covering
     preserves the register boundary. Guard against repeated calls. *)
  let existing =
    Array.to_list (Nets.Netlist.outputs comb) |> List.map fst
  in
  List.iter
    (fun (name, _, d) ->
      let po = name ^ ".d" in
      if not (List.mem po existing) then Nets.Netlist.add_output comb po d)
    regs;
  let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist comb) in
  let mapped = Mapper.map ml aig in
  let find what nets name =
    match Array.find_opt (fun (n, _) -> n = name) nets with
    | Some (_, net) -> net
    | None ->
        R.failf ~context:[ ("net", name) ] R.Techmap R.Missing_signal
          "Seqmap: the mapping has no %s %s" what name
  in
  let reg_nets =
    List.map
      (fun (name, _, _) ->
        ( name,
          find "Q input" mapped.Mapped.pi_nets (name ^ ".q"),
          find "D output" mapped.Mapped.po_nets (name ^ ".d") ))
      regs
  in
  (mapped, reg_nets)

let estimate ?(cycles = 10_000) ?(seed = 21L) ml (seq : Nets.Seq.t) =
  let mapped, reg_nets = map_seq ml seq in
  let lib = mapped.Mapped.lib in
  let tech = lib.G.tech in
  let vdd = tech.Spice.Tech.vdd in
  let f = Spice.Tech.frequency in
  let dff = Cell.Register.for_library lib in
  let streams = 64 in
  let rng = Logic.Prng.create seed in
  let q_nets = Array.of_list (List.map (fun (_, q, _) -> q) reg_nets) in
  let d_nets = Array.of_list (List.map (fun (_, _, d) -> d) reg_nets) in
  let nregs = Array.length q_nets in
  let nets = mapped.Mapped.num_nets in
  (* One word per net, the streams bit-sliced, and every cell's cover
     lowered onto the words once; the registers' Q words hold the state. *)
  let vectors, cells = Mapped.net_vectors mapped ~patterns:streams in
  let words = Array.map B.words vectors in
  let inputs =
    Array.to_list mapped.Mapped.pi_nets
    |> List.filter_map (fun (_, net) ->
           if Array.mem net q_nets then None else Some words.(net))
    |> Array.of_list
  in
  let buffer n = B.words (B.create (streams * n)) in
  let scratch = buffer 1 and diff = buffer 1 and prev = buffer nets in
  let draws = buffer (Array.length inputs) and next = buffer nregs in
  let count ws = B.popcount_words ws 1 ~last:(-1L) in
  let ones = Array.make nets 0 and toggles = Array.make nets 0 in
  let state_toggles = ref 0 in
  T.with_span "seqmap.cycles" (fun () ->
    for cycle = 0 to cycles - 1 do
      (* One draw per true input, in [pi_nets] order. *)
      B.fill_words rng draws ~at:0 ~len:(Array.length inputs);
      for i = 0 to Array.length inputs - 1 do
        B.store inputs.(i) 0 (B.load draws (i lsl 3))
      done;
      Mapped.eval_range cells ~scratch ~lo:0 ~len:1;
      for net = 0 to nets - 1 do
        let ws = words.(net) and o = net lsl 3 in
        ones.(net) <- ones.(net) + count ws;
        if cycle > 0 then begin
          B.store diff 0 (Int64.logxor (B.load ws 0) (B.load prev o));
          toggles.(net) <- toggles.(net) + count diff
        end;
        B.store prev o (B.load ws 0)
      done;
      (* Clock edge: a register's D may be another's Q, so every D is read
         before any Q is written. *)
      for r = 0 to nregs - 1 do
        B.store next (r lsl 3) (B.load words.(d_nets.(r)) 0)
      done;
      for r = 0 to nregs - 1 do
        let q = words.(q_nets.(r)) and o = r lsl 3 in
        B.store diff 0 (Int64.logxor (B.load next o) (B.load q 0));
        state_toggles := !state_toggles + count diff;
        B.store q 0 (B.load next o)
      done
    done);
  let samples_t = float_of_int (max 1 ((cycles - 1) * streams)) in
  let samples_p = float_of_int (cycles * streams) in
  (* Combinational power under the sequential stimulus. *)
  let loads = Mapped.net_loads mapped in
  Array.iter (fun q -> loads.(q) <- loads.(q) +. dff.Cell.Register.q_drive_cap) q_nets;
  Array.iter (fun d -> loads.(d) <- loads.(d) +. dff.Cell.Register.d_cap) d_nets;
  let comb_power =
    Estimate.of_activity mapped ~loads
      ~toggles:(fun net -> float_of_int toggles.(net) /. samples_t)
      ~probs:(fun net -> float_of_int ones.(net) /. samples_p)
  in
  (* Register contributions. *)
  let nregs_f = float_of_int nregs in
  let clock_power =
    nregs_f
    *. (dff.Cell.Register.clock_cap +. dff.Cell.Register.clock_internal_cap)
    *. f *. vdd *. vdd
  in
  let state_alpha = float_of_int !state_toggles /. samples_t /. max 1.0 nregs_f in
  let reg_internal_power =
    nregs_f *. state_alpha *. dff.Cell.Register.internal_cap *. f *. vdd *. vdd
  in
  let reg_leak_power = nregs_f *. dff.Cell.Register.leakage *. vdd in
  let total =
    comb_power.Estimate.total +. clock_power +. reg_internal_power +. reg_leak_power
  in
  let reg_delay_margin = 4.0 *. tech.Spice.Tech.tau in
  {
    gates = comb_power.Estimate.gates;
    registers = nregs;
    comb_area = comb_power.Estimate.area;
    reg_area = nregs_f *. float_of_int dff.Cell.Register.transistors;
    min_period = comb_power.Estimate.delay +. reg_delay_margin;
    comb_power;
    clock_power;
    reg_internal_power;
    reg_leak_power;
    total;
    epc = total /. f;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "seq: %d gates + %d regs, area %g + %g T, min period %.1f ps (%.2f GHz max)@."
    r.gates r.registers r.comb_area r.reg_area (r.min_period *. 1e12)
    (1.0 /. r.min_period /. 1e9);
  Format.fprintf ppf
    "  comb %.3g uW (PD %.3g, PS %.3g) + clock %.3g uW + reg switch %.3g uW + reg leak %.3g uW = %.3g uW@."
    (r.comb_power.Estimate.total *. 1e6)
    (r.comb_power.Estimate.dynamic *. 1e6)
    (r.comb_power.Estimate.static *. 1e6)
    (r.clock_power *. 1e6) (r.reg_internal_power *. 1e6) (r.reg_leak_power *. 1e6)
    (r.total *. 1e6);
  Format.fprintf ppf "  energy per cycle %.3g fJ@." (r.epc *. 1e15)
