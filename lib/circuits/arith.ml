module N = Nets.Netlist

type bus = int array

let constant t b = N.add_node t (N.Constant b) [||]

let input_bus t name width =
  Array.init width (fun i -> N.add_input t (Printf.sprintf "%s%d" name i))

let output_bus t name bus =
  Array.iteri (fun i id -> N.add_output t (Printf.sprintf "%s%d" name i) id) bus

let full_adder t a b c =
  let sum = N.add_node t N.Xor [| a; b; c |] in
  let carry = N.add_node t N.Maj [| a; b; c |] in
  (sum, carry)

let ripple_adder t ?carry_in a b =
  assert (Array.length a = Array.length b);
  let width = Array.length a in
  let sum = Array.make width 0 in
  let carry = ref (match carry_in with Some c -> c | None -> constant t false) in
  for i = 0 to width - 1 do
    let s, c = full_adder t a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let subtractor t a b =
  let nb = Array.map (fun id -> N.add_node t N.Not [| id |]) b in
  let one = constant t true in
  ripple_adder t ~carry_in:one a nb

let rec tree t op = function
  | [||] -> invalid_arg "Arith.tree: empty"
  | [| x |] -> x
  | items ->
      let n = Array.length items in
      let half = n / 2 in
      let left = tree t op (Array.sub items 0 half) in
      let right = tree t op (Array.sub items half (n - half)) in
      N.add_node t op [| left; right |]

let parity_tree t items = tree t N.Xor items
let and_tree t items = tree t N.And items
let or_tree t items = tree t N.Or items

let equal_comparator t a b =
  assert (Array.length a = Array.length b);
  let eq = Array.map2 (fun x y -> N.add_node t N.Xnor [| x; y |]) a b in
  and_tree t eq

let less_than t a b =
  (* a < b iff borrow out of a - b: carry out of a + ~b + 1 is 0. *)
  let _, carry = subtractor t a b in
  N.add_node t N.Not [| carry |]

let mux_bus t s a b =
  assert (Array.length a = Array.length b);
  Array.map2 (fun x y -> N.add_node t N.Mux [| s; x; y |]) a b

let rec mux_tree t sel choices =
  match Array.length sel with
  | 0 ->
      assert (Array.length choices = 1);
      choices.(0)
  | _ ->
      let n = Array.length choices in
      assert (n = 1 lsl Array.length sel);
      let low_sel = Array.sub sel 0 (Array.length sel - 1) in
      let top = sel.(Array.length sel - 1) in
      let half = n / 2 in
      let a = mux_tree t low_sel (Array.sub choices 0 half) in
      let b = mux_tree t low_sel (Array.sub choices half half) in
      mux_bus t top a b

let bitwise t op a b =
  assert (Array.length a = Array.length b);
  Array.map2 (fun x y -> N.add_node t op [| x; y |]) a b

let decoder t sel =
  let width = Array.length sel in
  let nsel = Array.map (fun id -> N.add_node t N.Not [| id |]) sel in
  Array.init (1 lsl width) (fun v ->
      let lits = Array.init width (fun i -> if (v lsr i) land 1 = 1 then sel.(i) else nsel.(i)) in
      if width = 1 then lits.(0) else and_tree t lits)
