module A = Aigs.Aig
module Cut = Aigs.Cut
module G = Cell.Genlib
module T = Logic.Truthtable

type objective = Delay | Area

type choice =
  | Wire
  | Inv
  | Gate of Matchlib.candidate * int array (* support leaf node ids *)

type info = { arrival : float; aflow : float; choice : choice }

let better objective a b =
  (* Is [a] better than [b]? *)
  match objective with
  | Delay -> a.arrival < b.arrival -. 1e-18 || (a.arrival < b.arrival +. 1e-18 && a.aflow < b.aflow)
  | Area -> a.aflow < b.aflow -. 1e-24 || (a.aflow < b.aflow +. 1e-24 && a.arrival < b.arrival)

(* Pre-computed matching data per AND node: for each cut, the shrunk cut
   function's support leaves and the candidate list per output phase. *)
type node_matches = (int array * Matchlib.candidate list * Matchlib.candidate list) list

let compute_matches ml aig ~k ~max_cuts =
  let n = A.num_nodes aig in
  let ninputs = A.num_inputs aig in
  let cuts = Cut.enumerate aig ~k ~max_cuts in
  let matches : node_matches array = Array.make n [] in
  for node = ninputs + 1 to n - 1 do
    let acc = ref [] in
    Array.iter
      (fun (cut : Cut.cut) ->
        if not (cut.Cut.leaves = [| node |]) then begin
          let tt_full = cut.Cut.fn in
          let support = T.support tt_full in
          if support <> [] then begin
            let tt = T.shrink tt_full in
            let leaves_sup =
              Array.of_list (List.map (fun v -> cut.Cut.leaves.(v)) support)
            in
            let pos = Matchlib.lookup ml tt in
            let neg = Matchlib.lookup ml (T.lognot tt) in
            if pos <> [] || neg <> [] then acc := (leaves_sup, pos, neg) :: !acc
          end
        end)
      cuts.(node);
    matches.(node) <- !acc
  done;
  matches

(* One selection pass: per node and phase, pick the best match under the
   objective, using [weight] as the fanout estimate for area flow. *)
let select ~objective ~inv (matches : node_matches array) aig weight =
  let n = A.num_nodes aig in
  let ninputs = A.num_inputs aig in
  let tried = ref 0 in
  let best : info option array array = Array.make_matrix n 2 None in
  for node = 1 to ninputs do
    best.(node).(0) <- Some { arrival = 0.0; aflow = 0.0; choice = Wire };
    best.(node).(1) <-
      Some { arrival = inv.G.delay; aflow = inv.G.area /. weight node; choice = Inv }
  done;
  for node = ninputs + 1 to n - 1 do
    let candidate = [| ref None; ref None |] in
    let consider phase leaves_sup (cand : Matchlib.candidate) =
      incr tried;
      let gate = cand.Matchlib.gate in
      let feasible = ref true in
      let arrival = ref gate.G.delay in
      let area_sum = ref gate.G.area in
      let pins = Array.length cand.Matchlib.perm in
      for j = 0 to pins - 1 do
        let leaf = leaves_sup.(cand.Matchlib.perm.(j)) in
        let need = (cand.Matchlib.inv_mask lsr j) land 1 in
        match best.(leaf).(need) with
        | None -> feasible := false
        | Some li ->
            if gate.G.delay +. li.arrival > !arrival then arrival := gate.G.delay +. li.arrival;
            area_sum := !area_sum +. li.aflow
      done;
      if !feasible then begin
        let info =
          { arrival = !arrival; aflow = !area_sum /. weight node; choice = Gate (cand, leaves_sup) }
        in
        match !(candidate.(phase)) with
        | Some cur when not (better objective info cur) -> ()
        | Some _ | None -> candidate.(phase) := Some info
      end
    in
    List.iter
      (fun (leaves_sup, pos, neg) ->
        List.iter (consider 0 leaves_sup) pos;
        List.iter (consider 1 leaves_sup) neg)
      matches.(node);
    best.(node).(0) <- !(candidate.(0));
    best.(node).(1) <- !(candidate.(1));
    let relax phase =
      match best.(node).(1 - phase) with
      | None -> ()
      | Some other ->
          let via_inv =
            {
              arrival = other.arrival +. inv.G.delay;
              aflow = other.aflow +. (inv.G.area /. weight node);
              choice = Inv;
            }
          in
          (match best.(node).(phase) with
          | Some cur when not (better objective via_inv cur) -> ()
          | Some _ | None -> best.(node).(phase) <- Some via_inv)
    in
    relax 0;
    relax 1;
    if best.(node).(0) = None && best.(node).(1) = None then
      Runtime.Cnt_error.failf
        ~context:[ ("node", string_of_int node) ]
        Runtime.Cnt_error.Techmap Runtime.Cnt_error.Unmapped_node
        "Mapper.map: node %d has no match" node
  done;
  Runtime.Telemetry.count "mapper.matches_tried" !tried;
  best

(* Count how many times each node is referenced by the cover implied by
   [best] — the exact fanout of the chosen implementation. *)
let cover_references best aig =
  let n = A.num_nodes aig in
  let refs = Array.make n 0 in
  let visited = Hashtbl.create 256 in
  let rec visit node phase =
    if not (Hashtbl.mem visited (node, phase)) then begin
      Hashtbl.replace visited (node, phase) ();
      match best.(node).(phase) with
      | None -> ()
      | Some info -> (
          match info.choice with
          | Wire -> ()
          | Inv ->
              refs.(node) <- refs.(node) + 1;
              visit node (1 - phase)
          | Gate (cand, leaves) ->
              let pins = Array.length cand.Matchlib.perm in
              for j = 0 to pins - 1 do
                let leaf = leaves.(cand.Matchlib.perm.(j)) in
                let need = (cand.Matchlib.inv_mask lsr j) land 1 in
                refs.(leaf) <- refs.(leaf) + 1;
                visit leaf need
              done)
    end
  in
  Array.iter
    (fun (_, lit) ->
      let node = A.node_of_lit lit in
      if node <> 0 then begin
        refs.(node) <- refs.(node) + 1;
        visit node (if A.is_complemented lit then 1 else 0)
      end)
    (A.outputs aig);
  refs

let extract best aig lib inv =
  let next_net = ref 0 in
  let fresh_net () =
    let id = !next_net in
    incr next_net;
    id
  in
  let pi_nets =
    Array.map
      (fun lit -> (A.input_name aig (A.node_of_lit lit), fresh_net ()))
      (A.input_lits aig)
  in
  let cells = ref [] in
  let memo_hits = ref 0 in
  let memo = Hashtbl.create 256 in
  let add_cell gate inputs =
    let out = fresh_net () in
    cells := { Mapped.gate; inputs; output = out } :: !cells;
    out
  in
  let rec realize node phase =
    match Hashtbl.find_opt memo (node, phase) with
    | Some net ->
        incr memo_hits;
        net
    | None ->
        let info =
          match best.(node).(phase) with
          | Some i -> i
          | None ->
              Runtime.Cnt_error.failf
                ~context:[ ("node", string_of_int node) ]
                Runtime.Cnt_error.Techmap Runtime.Cnt_error.Unmapped_node
                "Mapper.map: unmapped phase required"
        in
        let net =
          match info.choice with
          | Wire -> snd pi_nets.(node - 1)
          | Inv -> add_cell inv [| realize node (1 - phase) |]
          | Gate (cand, leaves) ->
              let gate = cand.Matchlib.gate in
              let pins = Array.length cand.Matchlib.perm in
              let inputs =
                Array.init pins (fun j ->
                    let leaf = leaves.(cand.Matchlib.perm.(j)) in
                    let need = (cand.Matchlib.inv_mask lsr j) land 1 in
                    realize leaf need)
              in
              add_cell gate inputs
        in
        Hashtbl.replace memo (node, phase) net;
        net
  in
  let const_nets = ref [] in
  let const_net = [| None; None |] in
  let realize_const phase =
    match const_net.(phase) with
    | Some net -> net
    | None ->
        let net = fresh_net () in
        const_nets := (net, phase = 1) :: !const_nets;
        const_net.(phase) <- Some net;
        net
  in
  let po_nets =
    Array.map
      (fun (name, lit) ->
        let node = A.node_of_lit lit in
        let phase = if A.is_complemented lit then 1 else 0 in
        if node = 0 then (name, realize_const phase) else (name, realize node phase))
      (A.outputs aig)
  in
  let cells = Array.of_list (List.rev !cells) in
  Runtime.Telemetry.count "mapper.memo_hits" !memo_hits;
  Runtime.Telemetry.count "mapper.cells_emitted" (Array.length cells);
  {
    Mapped.lib;
    num_nets = !next_net;
    pi_nets;
    po_nets;
    const_nets = Array.of_list !const_nets;
    cells;
  }

let map ?(objective = Delay) ?(k = 6) ?(max_cuts = 10) ml aig =
  Runtime.Telemetry.with_span "techmap.map" (fun () ->
      let lib = Matchlib.library ml in
      let inv = Matchlib.inverter ml in
      let matches = compute_matches ml aig ~k ~max_cuts in
      let fanouts = A.fanout_counts aig in
      let weight_of refs node = float_of_int (max 1 refs.(node)) in
      let best = ref (select ~objective ~inv matches aig (weight_of fanouts)) in
      (* For area-oriented covering, iterate with exact cover reference
         counts: the classic area-flow refinement (two rounds suffice in
         practice). *)
      if objective = Area then
        for _ = 1 to 2 do
          let refs = cover_references !best aig in
          best := select ~objective ~inv matches aig (weight_of refs)
        done;
      extract !best aig lib inv)

let map_checked ?objective ?k ?max_cuts ml aig =
  Runtime.Cnt_error.protect ~stage:Runtime.Cnt_error.Techmap (fun () ->
      map ?objective ?k ?max_cuts ml aig)
