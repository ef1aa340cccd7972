module B = Logic.Bitvec
module R = Runtime.Cnt_error

type reg = { name : string; q_node : int; mutable d_node : int }

type t = {
  netlist : Netlist.t;
  mutable regs : reg list; (* reversed *)
}

let create () = { netlist = Netlist.create (); regs = [] }

let comb t = t.netlist
let add_input t name = Netlist.add_input t.netlist name

let add_register t name =
  let q = Netlist.add_input t.netlist (name ^ ".q") in
  t.regs <- { name; q_node = q; d_node = -1 } :: t.regs;
  q

let invalid ~what name fmt =
  R.failf ~context:[ (what, name) ] R.Netlist R.Validation_error fmt

let connect t name d_node =
  match List.find_opt (fun r -> r.name = name) t.regs with
  | Some r -> r.d_node <- d_node
  | None -> invalid ~what:"register" name "Seq.connect: unknown register %s" name

let add_output t name id = Netlist.add_output t.netlist name id

let num_registers t = List.length t.regs

let registers t =
  List.rev_map
    (fun r ->
      if r.d_node < 0 then
        invalid ~what:"register" r.name "Seq: register %s is unconnected" r.name;
      (r.name, r.q_node, r.d_node))
    t.regs

(* True primary inputs = inputs of the core that are not register Qs. *)
let true_inputs t =
  let qs = List.map (fun r -> r.q_node) t.regs in
  Array.to_list (Netlist.inputs t.netlist)
  |> List.filter (fun id -> not (List.mem id qs))

let step t ~state ~inputs =
  let regs = registers t in
  assert (Array.length state = List.length regs);
  let input_ids = true_inputs t in
  assert (Array.length inputs = List.length input_ids);
  let all = Netlist.inputs t.netlist in
  let stimulus =
    Array.map
      (fun id ->
        match List.find_index (fun (_, q, _) -> q = id) regs with
        | Some ri -> state.(ri)
        | None -> (
            match List.find_index (( = ) id) input_ids with
            | Some i -> inputs.(i)
            | None ->
                let name = Netlist.input_name t.netlist id in
                invalid ~what:"input" name "Seq.step: unknown input %s" name))
      all
  in
  let outputs = Netlist.eval t.netlist stimulus in
  (* Next-state needs arbitrary node values: run the bit simulator on
     width-1 vectors. *)
  let stim_bv =
    Array.map
      (fun b ->
        let v = B.create 1 in
        B.set v 0 b;
        v)
      stimulus
  in
  let result = Sim.run t.netlist stim_bv in
  let next_state =
    Array.of_list (List.map (fun (_, _, d) -> B.get result.Sim.node_values.(d) 0) regs)
  in
  (outputs, next_state)
