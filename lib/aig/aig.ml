module T = Logic.Truthtable

type lit = int

type t = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable num : int; (* nodes allocated: constant + inputs + ands *)
  strash : (int * int, int) Hashtbl.t;
  mutable ninputs : int;
  mutable names : string array;
  mutable outs : (string * lit) list; (* reversed *)
}

let const_false = 0
let const_true = 1
let lit_of_node node compl = (2 * node) lor if compl then 1 else 0
let node_of_lit lit = lit lsr 1
let is_complemented lit = lit land 1 = 1
let lit_not lit = lit lxor 1

let create () =
  {
    fanin0 = Array.make 256 (-1);
    fanin1 = Array.make 256 (-1);
    num = 1 (* constant node *);
    strash = Hashtbl.create 1024;
    ninputs = 0;
    names = Array.make 16 "";
    outs = [];
  }

let grow t =
  if t.num = Array.length t.fanin0 then begin
    let n = 2 * t.num in
    let f0 = Array.make n (-1) and f1 = Array.make n (-1) in
    Array.blit t.fanin0 0 f0 0 t.num;
    Array.blit t.fanin1 0 f1 0 t.num;
    t.fanin0 <- f0;
    t.fanin1 <- f1
  end

let num_nodes t = t.num
let num_inputs t = t.ninputs
let num_ands t = t.num - 1 - t.ninputs
let num_outputs t = List.length t.outs
let is_input t node = node >= 1 && node <= t.ninputs
let is_and t node = node > t.ninputs && node < t.num

let add_input t name =
  if num_ands t > 0 then invalid_arg "Aig.add_input: after AND nodes";
  grow t;
  let node = t.num in
  t.num <- t.num + 1;
  t.ninputs <- t.ninputs + 1;
  if t.ninputs > Array.length t.names then begin
    let bigger = Array.make (2 * Array.length t.names) "" in
    Array.blit t.names 0 bigger 0 (Array.length t.names);
    t.names <- bigger
  end;
  t.names.(t.ninputs - 1) <- name;
  lit_of_node node false

let input_lits t = Array.init t.ninputs (fun i -> lit_of_node (i + 1) false)
let input_name t node = t.names.(node - 1)

let mk_and t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = lit_not b then const_false
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some node -> lit_of_node node false
    | None ->
        grow t;
        let node = t.num in
        t.num <- t.num + 1;
        t.fanin0.(node) <- a;
        t.fanin1.(node) <- b;
        Hashtbl.replace t.strash (a, b) node;
        lit_of_node node false

let mk_or t a b = lit_not (mk_and t (lit_not a) (lit_not b))

let mk_xor t a b =
  (* a ^ b = !(a & b) & (a | b) *)
  let nand = lit_not (mk_and t a b) in
  let either = mk_or t a b in
  mk_and t nand either

let mk_mux t s a b = mk_or t (mk_and t (lit_not s) a) (mk_and t s b)

let mk_and_list t lits = List.fold_left (mk_and t) const_true lits
let mk_or_list t lits = List.fold_left (mk_or t) const_false lits

let add_output t name lit = t.outs <- (name, lit) :: t.outs
let outputs t = Array.of_list (List.rev t.outs)

let fanin0 t node =
  assert (is_and t node);
  t.fanin0.(node)

let fanin1 t node =
  assert (is_and t node);
  t.fanin1.(node)

let levels t =
  let lv = Array.make t.num 0 in
  for node = t.ninputs + 1 to t.num - 1 do
    lv.(node) <- 1 + max lv.(node_of_lit t.fanin0.(node)) lv.(node_of_lit t.fanin1.(node))
  done;
  lv

let depth t =
  let lv = levels t in
  List.fold_left (fun acc (_, lit) -> max acc lv.(node_of_lit lit)) 0 t.outs

let fanout_counts t =
  let fc = Array.make t.num 0 in
  for node = t.ninputs + 1 to t.num - 1 do
    fc.(node_of_lit t.fanin0.(node)) <- fc.(node_of_lit t.fanin0.(node)) + 1;
    fc.(node_of_lit t.fanin1.(node)) <- fc.(node_of_lit t.fanin1.(node)) + 1
  done;
  List.iter (fun (_, lit) -> fc.(node_of_lit lit) <- fc.(node_of_lit lit) + 1) t.outs;
  fc

let build_expr t e leaves =
  let module E = Logic.Expr in
  let rec go = function
    | E.Const b -> if b then const_true else const_false
    | E.Var i -> leaves.(i)
    | E.Not e -> lit_not (go e)
    | E.And children -> mk_and_list t (List.map go children)
    | E.Or children -> mk_or_list t (List.map go children)
    | E.Xor children ->
        List.fold_left (fun acc e -> mk_xor t acc (go e)) const_false children
  in
  go e

let cone_tt t root leaves =
  let n = Array.length leaves in
  assert (n <= 16);
  let tts = Hashtbl.create 32 in
  Array.iteri
    (fun i lit ->
      let v = T.var n i in
      Hashtbl.replace tts (node_of_lit lit) (if is_complemented lit then T.lognot v else v))
    leaves;
  let rec go node =
    match Hashtbl.find_opt tts node with
    | Some tt -> tt
    | None ->
        if node = 0 then T.const n false
        else if is_input t node then
          invalid_arg "Aig.cone_tt: cone escapes leaves"
        else begin
          let lit_tt lit =
            let tt = go (node_of_lit lit) in
            if is_complemented lit then T.lognot tt else tt
          in
          let tt = T.logand (lit_tt t.fanin0.(node)) (lit_tt t.fanin1.(node)) in
          Hashtbl.replace tts node tt;
          tt
        end
  in
  go root

let of_netlist nl =
  let module N = Nets.Netlist in
  let t = create () in
  let lits = Array.make (N.size nl) const_false in
  Array.iter (fun id -> lits.(id) <- add_input t (N.input_name nl id)) (N.inputs nl);
  N.iter_nodes nl (fun id op fanins ->
      let arg i = lits.(fanins.(i)) in
      let args () = Array.to_list (Array.map (fun f -> lits.(f)) fanins) in
      match op with
      | N.Input -> ()
      | N.Constant b -> lits.(id) <- (if b then const_true else const_false)
      | N.Buf -> lits.(id) <- arg 0
      | N.Not -> lits.(id) <- lit_not (arg 0)
      | N.And -> lits.(id) <- mk_and_list t (args ())
      | N.Or -> lits.(id) <- mk_or_list t (args ())
      | N.Xor -> lits.(id) <- List.fold_left (mk_xor t) const_false (args ())
      | N.Nand -> lits.(id) <- lit_not (mk_and_list t (args ()))
      | N.Nor -> lits.(id) <- lit_not (mk_or_list t (args ()))
      | N.Xnor -> lits.(id) <- lit_not (List.fold_left (mk_xor t) const_false (args ()))
      | N.Mux -> lits.(id) <- mk_mux t (arg 0) (arg 1) (arg 2)
      | N.Maj ->
          lits.(id) <-
            mk_or t
              (mk_and t (arg 0) (arg 1))
              (mk_or t (mk_and t (arg 0) (arg 2)) (mk_and t (arg 1) (arg 2)))
      | N.Lut tt ->
          let e = Logic.Expr.factor_tt tt in
          lits.(id) <- build_expr t e (Array.map (fun f -> lits.(f)) fanins));
  Array.iter (fun (name, id) -> add_output t name lits.(id)) (N.outputs nl);
  t

let to_netlist t =
  let module N = Nets.Netlist in
  let nl = N.create () in
  let ids = Array.make t.num (-1) in
  let const_id = lazy (N.add_node nl (N.Constant false) [||]) in
  for i = 1 to t.ninputs do
    ids.(i) <- N.add_input nl t.names.(i - 1)
  done;
  let lit_node lit =
    let node = node_of_lit lit in
    let id = if node = 0 then Lazy.force const_id else ids.(node) in
    if is_complemented lit then N.add_node nl N.Not [| id |] else id
  in
  for node = t.ninputs + 1 to t.num - 1 do
    ids.(node) <- N.add_node nl N.And [| lit_node t.fanin0.(node); lit_node t.fanin1.(node) |]
  done;
  List.iter (fun (name, lit) -> N.add_output nl name (lit_node lit)) (List.rev t.outs);
  nl

let cleanup t =
  let reachable = Array.make t.num false in
  reachable.(0) <- true;
  let rec mark node =
    if not reachable.(node) then begin
      reachable.(node) <- true;
      if is_and t node then begin
        mark (node_of_lit t.fanin0.(node));
        mark (node_of_lit t.fanin1.(node))
      end
    end
  in
  List.iter (fun (_, lit) -> mark (node_of_lit lit)) t.outs;
  let fresh = create () in
  let map = Array.make t.num const_false in
  for i = 1 to t.ninputs do
    (* keep all inputs to preserve the interface *)
    map.(i) <- add_input fresh t.names.(i - 1)
  done;
  let map_lit lit =
    let base = map.(node_of_lit lit) in
    if is_complemented lit then lit_not base else base
  in
  for node = t.ninputs + 1 to t.num - 1 do
    if reachable.(node) then
      map.(node) <- mk_and fresh (map_lit t.fanin0.(node)) (map_lit t.fanin1.(node))
  done;
  List.iter (fun (name, lit) -> add_output fresh name (map_lit lit)) (List.rev t.outs);
  fresh

let pp_stats ppf t =
  Format.fprintf ppf "aig: inputs=%d outputs=%d ands=%d depth=%d" t.ninputs
    (num_outputs t) (num_ands t) (depth t)
