module E = Logic.Expr

(* ------------------------------------------------------------------ *)
(* Balance                                                             *)

let balance t =
  let fresh = Aig.create () in
  let n = Aig.num_nodes t in
  let ninputs = Aig.num_inputs t in
  let map = Array.make n Aig.const_false in
  for i = 1 to ninputs do
    map.(i) <- Aig.add_input fresh (Aig.input_name t i)
  done;
  let fanouts = Aig.fanout_counts t in
  let map_lit lit =
    let base = map.(Aig.node_of_lit lit) in
    if Aig.is_complemented lit then Aig.lit_not base else base
  in
  (* Collect the operand literals of the maximal AND tree rooted at [node]:
     descend through non-complemented single-fanout AND fanins. *)
  let rec operands acc lit ~root =
    let nd = Aig.node_of_lit lit in
    if
      (not (Aig.is_complemented lit))
      && Aig.is_and t nd
      && (root || fanouts.(nd) = 1)
    then
      operands (operands acc (Aig.fanin0 t nd) ~root:false) (Aig.fanin1 t nd) ~root:false
    else lit :: acc
  in
  (* Incrementally tracked levels of the fresh AIG (inputs at 0). *)
  let lvl = ref (Array.make 1024 0) in
  let get_lvl node = if node < Array.length !lvl then !lvl.(node) else 0 in
  let set_lvl node v =
    if node >= Array.length !lvl then begin
      let bigger = Array.make (2 * max node (Array.length !lvl)) 0 in
      Array.blit !lvl 0 bigger 0 (Array.length !lvl);
      lvl := bigger
    end;
    !lvl.(node) <- v
  in
  let mk_and_leveled a b =
    let r = Aig.mk_and fresh a b in
    let nd = Aig.node_of_lit r in
    if Aig.is_and fresh nd then
      set_lvl nd (1 + max (get_lvl (Aig.node_of_lit a)) (get_lvl (Aig.node_of_lit b)));
    r
  in
  let lv lit = get_lvl (Aig.node_of_lit lit) in
  for node = ninputs + 1 to n - 1 do
    let ops = operands [] (Aig.lit_of_node node false) ~root:true in
    let mapped = List.map map_lit ops in
    (* Build a balanced tree: repeatedly AND the two lowest-level operands. *)
    let rec reduce = function
      | [] -> Aig.const_true
      | [ x ] -> x
      | items ->
          let sorted = List.sort (fun a b -> compare (lv a) (lv b)) items in
          (match sorted with
          | a :: b :: rest -> reduce (mk_and_leveled a b :: rest)
          | [ _ ] | [] -> assert false)
    in
    map.(node) <- reduce mapped
  done;
  Array.iter (fun (name, lit) -> Aig.add_output fresh name (map_lit lit)) (Aig.outputs t);
  Aig.cleanup fresh

(* ------------------------------------------------------------------ *)
(* Rewrite / refactor                                                  *)

(* AIG node cost of a factored expression: XOR pairs cost 3 ANDs. *)
let rec aig_cost = function
  | E.Const _ | E.Var _ -> 0
  | E.Not e -> aig_cost e
  | E.And children | E.Or children ->
      List.length children - 1 + List.fold_left (fun a e -> a + aig_cost e) 0 children
  | E.Xor children ->
      (3 * (List.length children - 1))
      + List.fold_left (fun a e -> a + aig_cost e) 0 children

module Factored = Hashtbl.Make (Logic.Truthtable)

let cut_rebuild ~zero_cost ~k ~max_cuts t =
  let n = Aig.num_nodes t in
  let ninputs = Aig.num_inputs t in
  let cuts = Cut.enumerate t ~k ~max_cuts in
  let fanouts = Aig.fanout_counts t in
  (* Few distinct functions occur among a pass's cuts: factor each once.
     The table lives for this pass only. *)
  let factored = Factored.create 1024 in
  let factor tt =
    match Factored.find_opt factored tt with
    | Some r -> r
    | None ->
        let expr = E.factor_tt tt in
        let r = (expr, aig_cost expr) in
        Factored.add factored tt r;
        r
  in
  (* Pass 1: pick a replacement per node (or none). *)
  let choice : (Cut.cut * E.t) option array = Array.make n None in
  for node = ninputs + 1 to n - 1 do
    let best = ref None in
    Array.iter
      (fun (cut : Cut.cut) ->
        if Array.length cut.leaves >= 2 && cut.leaves <> [| node |] then begin
          let expr, cost = factor cut.fn in
          let saved = Cut.mffc_size t fanouts node cut in
          let gain = saved - cost in
          let accept = if zero_cost then gain >= 0 else gain > 0 in
          if accept then
            match !best with
            | Some (_, _, best_gain) when best_gain >= gain -> ()
            | Some _ | None -> best := Some (cut, expr, gain)
        end)
      cuts.(node);
    choice.(node) <- Option.map (fun (cut, expr, _) -> (cut, expr)) !best
  done;
  (* Pass 2: lazy rebuild from the outputs. *)
  let fresh = Aig.create () in
  let map = Array.make n (-1) in
  map.(0) <- Aig.const_false;
  for i = 1 to ninputs do
    map.(i) <- Aig.add_input fresh (Aig.input_name t i)
  done;
  let rec build node =
    if map.(node) >= 0 then map.(node)
    else begin
      let result =
        match choice.(node) with
        | Some (cut, expr) ->
            let leaves = Array.map (fun leaf -> build_lit (Aig.lit_of_node leaf false)) cut.leaves in
            Aig.build_expr fresh expr leaves
        | None ->
            Aig.mk_and fresh (build_lit (Aig.fanin0 t node)) (build_lit (Aig.fanin1 t node))
      in
      map.(node) <- result;
      result
    end
  and build_lit lit =
    let base = build (Aig.node_of_lit lit) in
    if Aig.is_complemented lit then Aig.lit_not base else base
  in
  Array.iter (fun (name, lit) -> Aig.add_output fresh name (build_lit lit)) (Aig.outputs t);
  Aig.cleanup fresh

let rewrite ?(zero_cost = false) ?(k = 4) ?(max_cuts = 8) t =
  cut_rebuild ~zero_cost ~k ~max_cuts t

let refactor ?(k = 8) ?(max_cuts = 4) t = cut_rebuild ~zero_cost:false ~k ~max_cuts t

(* ------------------------------------------------------------------ *)
(* Script                                                              *)

let resyn2rs t =
  let step f t = f t in
  let once t =
    t |> step balance |> step rewrite |> step refactor |> step balance
    |> step (rewrite ~zero_cost:true)
    |> step balance
  in
  let rec iterate t best_ands rounds =
    if rounds = 0 then t
    else begin
      let t' = once t in
      let ands = Aig.num_ands t' in
      if ands < best_ands then iterate t' ands (rounds - 1) else t
    end
  in
  let t0 = once t in
  iterate t0 (Aig.num_ands t0) 3
