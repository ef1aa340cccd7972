module G = Cell.Genlib
module B = Logic.Bitvec
module T = Logic.Truthtable
module Sim = Nets.Sim

type cell = { gate : G.gate; inputs : int array; output : int }

type t = {
  lib : G.t;
  num_nets : int;
  pi_nets : (string * int) array;
  po_nets : (string * int) array;
  const_nets : (int * bool) array;
  cells : cell array;
}

let num_gates t = Array.length t.cells
let area t = Array.fold_left (fun acc c -> acc +. c.gate.G.area) 0.0 t.cells

let arrival_times t =
  let arr = Array.make t.num_nets 0.0 in
  Array.iter
    (fun c ->
      let worst = Array.fold_left (fun acc net -> max acc arr.(net)) 0.0 c.inputs in
      arr.(c.output) <- worst +. c.gate.G.delay)
    t.cells;
  arr

let delay t =
  let arr = arrival_times t in
  Array.fold_left (fun acc (_, net) -> max acc arr.(net)) 0.0 t.po_nets

let net_loads ?(wire_cap_per_fanout = 0.0) t =
  let loads = Array.make t.num_nets 0.0 in
  Array.iter
    (fun c ->
      loads.(c.output) <- loads.(c.output) +. c.gate.G.output_drain_cap;
      Array.iteri
        (fun pin net ->
          loads.(net) <- loads.(net) +. c.gate.G.input_caps.(pin) +. wire_cap_per_fanout)
        c.inputs)
    t.cells;
  Array.iter
    (fun (_, net) ->
      loads.(net) <- loads.(net) +. Spice.Tech.inverter_input_cap t.lib.G.tech)
    t.po_nets;
  loads

let gate_histogram t =
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun c ->
      let name = c.gate.G.cell.Cell.Cells.name in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    t.cells;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type lowered = (Sim.cover * B.words) array

let lower t nets =
  let cover_cache = Hashtbl.create 32 in
  let cubes_of gate =
    let name = gate.G.cell.Cell.Cells.name in
    match Hashtbl.find_opt cover_cache name with
    | Some cubes -> cubes
    | None ->
        let cubes = T.isop (Cell.Cells.tt gate.G.cell) in
        Hashtbl.replace cover_cache name cubes;
        cubes
  in
  Array.map
    (fun c ->
      ( Sim.cover_of_cubes (cubes_of c.gate) (Array.map (fun net -> nets.(net)) c.inputs),
        nets.(c.output) ))
    t.cells

let net_vectors ?inputs t ~patterns =
  let values = Array.make t.num_nets (B.create patterns) in
  Array.iteri
    (fun i (_, net) ->
      values.(net) <- (match inputs with Some v -> v.(i) | None -> B.create patterns))
    t.pi_nets;
  let one = lazy (B.lognot (B.create patterns)) in
  Array.iter (fun (net, b) -> if b then values.(net) <- Lazy.force one) t.const_nets;
  Array.iter (fun c -> values.(c.output) <- B.create patterns) t.cells;
  (values, lower t (Array.map B.words values))

let eval_range cells ~scratch ~lo ~len =
  Array.iter (fun (cover, dst) -> Sim.eval_cover cover ~dst ~scratch ~lo ~len) cells

let cube_count cells =
  Array.fold_left (fun acc (cover, _) -> acc + Sim.cover_cubes cover) 0 cells

let simulate ?domains t stimulus =
  assert (Array.length stimulus = Array.length t.pi_nets);
  let npat = if Array.length stimulus = 0 then 0 else B.length stimulus.(0) in
  (* Every cell output preallocated and the cells' covers lowered onto
     the vectors once, so the sweep below is the allocation-free cover
     kernel of [Nets.Sim]. The word axis shards across domains: word-level
     ops are word-local, so any domain count produces bit-identical
     values. *)
  let values, cells = net_vectors ~inputs:stimulus t ~patterns:npat in
  let scratch = B.words (B.create npat) in
  let nwords = max 1 ((npat + 63) / 64) in
  let cubes_per_word = cube_count cells in
  let stats =
    Runtime.Dpool.run ?domains ~units:nwords (fun ~worker ~lo ~len ->
        eval_range cells ~scratch ~lo ~len;
        if Runtime.Telemetry.enabled () then begin
          Runtime.Telemetry.count "mapped.sim.cube_words" (cubes_per_word * len);
          Runtime.Telemetry.count
            (Printf.sprintf "sim.d%d.patterns_simulated" worker)
            (max 0 (min ((lo + len) * 64) npat - (lo * 64)))
        end)
  in
  (* Clamp tails beyond npat (inputs are clean, but all-neg cubes and the
     constant -1 product can set tail bits). *)
  Array.iter (fun c -> B.clamp values.(c.output)) t.cells;
  Runtime.Telemetry.observe "sim.domains"
    (float_of_int stats.Runtime.Dpool.domains_used);
  values

let check ?domains t reference ~patterns ~seed =
  let module N = Nets.Netlist in
  let stimulus =
    Sim.random_stimulus ?domains ~seed ~inputs:(Array.length t.pi_nets)
      ~patterns ()
  in
  (* Align reference inputs by name. *)
  let ref_inputs = N.inputs reference in
  let ref_stimulus =
    Array.map
      (fun id ->
        let name = N.input_name reference id in
        match Array.to_list t.pi_nets |> List.assoc_opt name with
        | Some _ ->
            let idx =
              let rec find i = if fst t.pi_nets.(i) = name then i else find (i + 1) in
              find 0
            in
            stimulus.(idx)
        | None ->
            Runtime.Cnt_error.failf
              ~context:[ ("net", name) ]
              Runtime.Cnt_error.Techmap Runtime.Cnt_error.Missing_signal
              "Mapped.check: unknown PI %s" name)
      ref_inputs
  in
  let ref_result = Sim.run ?domains reference ref_stimulus in
  let ref_outs = Sim.output_values reference ref_result in
  let values = simulate ?domains t stimulus in
  Array.for_all
    (fun (name, net) ->
      let ref_v =
        let rec find i =
          if fst ref_outs.(i) = name then snd ref_outs.(i) else find (i + 1)
        in
        find 0
      in
      B.equal values.(net) ref_v)
    t.po_nets

let pp_stats ppf t =
  Format.fprintf ppf "mapped[%s]: %d gates, area %g, delay %.1f ps" t.lib.G.name
    (num_gates t) (area t) (delay t *. 1e12)
