module A = Aigs.Aig
module Opt = Aigs.Opt
module Cut = Aigs.Cut
module T = Logic.Truthtable
module N = Nets.Netlist

let tt = Alcotest.testable T.pp T.equal

(* Function of every output in terms of all primary inputs (n <= 16). *)
let output_functions aig =
  let leaves = A.input_lits aig in
  Array.map
    (fun (name, lit) ->
      let base = A.cone_tt aig (A.node_of_lit lit) leaves in
      (name, if A.is_complemented lit then T.lognot base else base))
    (A.outputs aig)

let check_equiv msg a b =
  let fa = output_functions a and fb = output_functions b in
  Alcotest.(check int) (msg ^ ": same output count") (Array.length fa) (Array.length fb);
  Array.iteri
    (fun i (name, f) ->
      let name', f' = fb.(i) in
      Alcotest.(check string) (msg ^ ": output name") name name';
      Alcotest.check tt (msg ^ ": output " ^ name) f f')
    fa

(* Random AIG generator. *)
let random_aig rng ~inputs ~ands ~outs =
  let aig = A.create () in
  let lits = ref [] in
  for i = 1 to inputs do
    lits := A.add_input aig (Printf.sprintf "i%d" i) :: !lits
  done;
  let pick () =
    let all = Array.of_list !lits in
    let l = all.(Logic.Prng.int rng (Array.length all)) in
    if Logic.Prng.bool rng then A.lit_not l else l
  in
  for _ = 1 to ands do
    lits := A.mk_and aig (pick ()) (pick ()) :: !lits
  done;
  for o = 1 to outs do
    A.add_output aig (Printf.sprintf "o%d" o) (pick ())
  done;
  aig

(* ------------------------------------------------------------------ *)

let strash_dedupes () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_and aig a b and y = A.mk_and aig b a in
  Alcotest.(check int) "same literal" x y;
  Alcotest.(check int) "one and node" 1 (A.num_ands aig)

let constant_folding () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  Alcotest.(check int) "a & 0" A.const_false (A.mk_and aig a A.const_false);
  Alcotest.(check int) "a & 1" a (A.mk_and aig a A.const_true);
  Alcotest.(check int) "a & a" a (A.mk_and aig a a);
  Alcotest.(check int) "a & !a" A.const_false (A.mk_and aig a (A.lit_not a));
  Alcotest.(check int) "no nodes created" 0 (A.num_ands aig)

let xor_function () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_xor aig a b in
  A.add_output aig "x" x;
  let fns = output_functions aig in
  let _, f = fns.(0) in
  Alcotest.check tt "xor" (T.logxor (T.var 2 0) (T.var 2 1)) f

let mux_function () =
  let aig = A.create () in
  let s = A.add_input aig "s" in
  let a = A.add_input aig "a" in
  let b = A.add_input aig "b" in
  A.add_output aig "m" (A.mk_mux aig s a b);
  let _, f = (output_functions aig).(0) in
  let expected =
    T.logor
      (T.logand (T.lognot (T.var 3 0)) (T.var 3 1))
      (T.logand (T.var 3 0) (T.var 3 2))
  in
  Alcotest.check tt "mux" expected f

let netlist_roundtrip () =
  let nl = N.create () in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let c = N.add_input nl "c" in
  let x = N.add_node nl N.Xor [| a; b |] in
  let m = N.add_node nl N.Maj [| a; b; c |] in
  N.add_output nl "sum" (N.add_node nl N.Xor [| x; c |]);
  N.add_output nl "carry" m;
  let aig = A.of_netlist nl in
  let nl2 = A.to_netlist aig in
  (* exhaustive comparison *)
  for m = 0 to 7 do
    let ins = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
    Alcotest.(check (array bool))
      (Printf.sprintf "pattern %d" m)
      (N.eval nl ins) (N.eval nl2 ins)
  done

let cleanup_removes_dead () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_and aig a b in
  let _dead = A.mk_and aig a (A.lit_not b) in
  A.add_output aig "x" x;
  let clean = A.cleanup aig in
  Alcotest.(check int) "dead removed" 1 (A.num_ands clean);
  check_equiv "cleanup" aig clean

let full_adder_aig () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  let b = A.add_input aig "b" in
  let c = A.add_input aig "c" in
  let sum = A.mk_xor aig (A.mk_xor aig a b) c in
  let carry =
    A.mk_or aig (A.mk_and aig a b) (A.mk_or aig (A.mk_and aig a c) (A.mk_and aig b c))
  in
  A.add_output aig "sum" sum;
  A.add_output aig "carry" carry;
  aig

let cut_enumeration_trivial () =
  let aig = full_adder_aig () in
  let cuts = Cut.enumerate aig ~k:4 ~max_cuts:8 in
  for node = 0 to A.num_nodes aig - 1 do
    let has_trivial =
      Array.exists (fun (c : Cut.cut) -> c.leaves = [| node |]) cuts.(node)
    in
    Alcotest.(check bool) (Printf.sprintf "trivial cut of %d" node) true has_trivial
  done

let cut_tt_full_adder () =
  let aig = full_adder_aig () in
  let _, sum_lit = (A.outputs aig).(0) in
  let node = A.node_of_lit sum_lit in
  let cuts = Cut.enumerate aig ~k:3 ~max_cuts:16 in
  let input_cut =
    Array.to_list cuts.(node)
    |> List.find_opt (fun (c : Cut.cut) -> c.leaves = [| 1; 2; 3 |])
  in
  match input_cut with
  | None -> Alcotest.fail "expected the PI cut {a,b,c}"
  | Some cut ->
      let f = cut.fn in
      let f = if A.is_complemented sum_lit then T.lognot f else f in
      let parity =
        List.fold_left (fun acc i -> T.logxor acc (T.var 3 i)) (T.const 3 false) [ 0; 1; 2 ]
      in
      Alcotest.check tt "sum is parity" parity f

(* The list-based enumeration Cut used to run, kept as the reference for
   the cut order: merge every pair of fanin cuts, sort and deduplicate
   with polymorphic [compare] (size, then leaves lexicographically), drop
   every proper superset of another candidate, keep the first
   [max_cuts - 1] and the trivial cut last. Returns leaf arrays. *)
let reference_cuts t ~k ~max_cuts =
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let rec go i j n =
      if i = la && j = lb then Some (Array.sub out 0 n)
      else if n = k then None
      else begin
        let v, i', j' =
          if j = lb || (i < la && a.(i) < b.(j)) then (a.(i), i + 1, j)
          else if i = la || b.(j) < a.(i) then (b.(j), i, j + 1)
          else (a.(i), i + 1, j + 1)
        in
        out.(n) <- v;
        go i' j' (n + 1)
      end
    in
    go 0 0 0
  in
  let subset a b = Array.for_all (fun x -> Array.mem x b) a in
  let n = A.num_nodes t in
  let cuts = Array.make n [||] in
  for node = 0 to n - 1 do
    if not (A.is_and t node) then cuts.(node) <- [| [| node |] |]
    else begin
      let f0 = A.node_of_lit (A.fanin0 t node) and f1 = A.node_of_lit (A.fanin1 t node) in
      let acc = ref [] in
      Array.iter
        (fun c0 ->
          Array.iter
            (fun c1 -> Option.iter (fun c -> acc := c :: !acc) (merge c0 c1))
            cuts.(f1))
        cuts.(f0);
      let all = List.sort_uniq compare !acc in
      let irredundant =
        List.filter (fun c -> not (List.exists (fun c' -> c' <> c && subset c' c) all)) all
      in
      let by_size =
        List.sort (fun a b -> compare (Array.length a) (Array.length b)) irredundant
      in
      let kept = List.filteri (fun i _ -> i < max_cuts - 1) by_size in
      cuts.(node) <- Array.of_list (kept @ [ [| node |] ])
    end
  done;
  cuts

let cut_order_matches_reference =
  QCheck.Test.make ~count:40 ~name:"cut order and functions match the reference"
    QCheck.(make Gen.(triple (int_bound 10_000) (int_range 6 10) (int_range 40 200)))
    (fun (seed, inputs, ands) ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 11)) in
      let aig = random_aig rng ~inputs ~ands ~outs:4 in
      List.for_all
        (fun (k, max_cuts) ->
          let cuts = Cut.enumerate aig ~k ~max_cuts in
          let reference = reference_cuts aig ~k ~max_cuts in
          let same_leaves cs rs =
            Array.length cs = Array.length rs
            && Array.for_all2 (fun (c : Cut.cut) r -> c.leaves = r) cs rs
          in
          let carried_fn node (c : Cut.cut) =
            T.equal c.fn
              (A.cone_tt aig node (Array.map (fun l -> A.lit_of_node l false) c.leaves))
          in
          Array.for_all2 same_leaves cuts reference
          && Array.for_all Fun.id
               (Array.mapi (fun node cs -> Array.for_all (carried_fn node) cs) cuts))
        [ (4, 8); (8, 4); (6, 10); (3, 16) ])

let pass_preserves name pass =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 1)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:4 in
      let opt = pass aig in
      let fa = output_functions aig and fb = output_functions opt in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) fa fb)

let balance_not_deeper () =
  let rng = Logic.Prng.create 5L in
  for _ = 1 to 20 do
    let aig = random_aig rng ~inputs:6 ~ands:60 ~outs:3 in
    let bal = Opt.balance aig in
    Alcotest.(check bool)
      (Printf.sprintf "depth %d <= %d" (A.depth bal) (A.depth aig))
      true
      (A.depth bal <= A.depth aig)
  done

let balance_chain_depth () =
  (* A linear AND chain of 8 operands must balance to depth 3. *)
  let aig = A.create () in
  let ins = Array.init 8 (fun i -> A.add_input aig (Printf.sprintf "i%d" i)) in
  let chain = Array.fold_left (fun acc l -> A.mk_and aig acc l) A.const_true ins in
  A.add_output aig "o" chain;
  let bal = Opt.balance aig in
  Alcotest.(check int) "balanced depth" 3 (A.depth bal);
  check_equiv "balance chain" aig bal

let rewrite_reduces_redundancy () =
  (* Build a deliberately redundant structure: (a&b)|(a&!b) = a. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let o = A.mk_or aig (A.mk_and aig a b) (A.mk_and aig a (A.lit_not b)) in
  A.add_output aig "o" o;
  let opt = Opt.rewrite aig in
  check_equiv "rewrite redundancy" aig opt;
  Alcotest.(check int) "reduced to zero ands" 0 (A.num_ands opt)

let resyn_monotone_benefit () =
  let rng = Logic.Prng.create 77L in
  for _ = 1 to 5 do
    let aig = random_aig rng ~inputs:8 ~ands:120 ~outs:6 in
    let aig = A.cleanup aig in
    let opt = Opt.resyn2rs aig in
    check_equiv "resyn2rs" aig opt;
    Alcotest.(check bool)
      (Printf.sprintf "not larger: %d <= %d" (A.num_ands opt) (A.num_ands aig))
      true
      (A.num_ands opt <= A.num_ands aig)
  done

(* ------------------------------------------------------------------ *)
(* Aiger *)

let aiger_roundtrip_fa () =
  let aig = full_adder_aig () in
  let text = Aigs.Aiger.write_string aig in
  let aig2 = Aigs.Aiger.read_string text in
  check_equiv "aiger roundtrip" aig aig2;
  Alcotest.(check int) "same ands" (A.num_ands aig) (A.num_ands aig2);
  Alcotest.(check string) "input names preserved" "a" (A.input_name aig2 1)

let aiger_roundtrip_random =
  QCheck.Test.make ~count:50 ~name:"aiger roundtrip preserves function"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 5)) in
      let aig = A.cleanup (random_aig rng ~inputs:5 ~ands:30 ~outs:3) in
      let aig2 = Aigs.Aiger.read_string (Aigs.Aiger.write_string aig) in
      let fa = output_functions aig and fb = output_functions aig2 in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) fa fb)

let aiger_parse_errors () =
  let bad text =
    try
      ignore (Aigs.Aiger.read_string text);
      false
    with Aigs.Aiger.Parse_error _ -> true
  in
  Alcotest.(check bool) "garbage" true (bad "hello");
  Alcotest.(check bool) "latches" true (bad "aag 1 0 1 0 0\n2 3\n");
  Alcotest.(check bool) "truncated" true (bad "aag 3 1 0 1 1\n2\n")

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "aig"
    [
      ( "core",
        [
          Alcotest.test_case "strash dedupes" `Quick strash_dedupes;
          Alcotest.test_case "constant folding" `Quick constant_folding;
          Alcotest.test_case "xor function" `Quick xor_function;
          Alcotest.test_case "mux function" `Quick mux_function;
          Alcotest.test_case "netlist roundtrip" `Quick netlist_roundtrip;
          Alcotest.test_case "cleanup removes dead" `Quick cleanup_removes_dead;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "trivial cut present" `Quick cut_enumeration_trivial;
          Alcotest.test_case "full-adder sum cut tt" `Quick cut_tt_full_adder;
        ]
        @ qt [ cut_order_matches_reference ] );
      ( "aiger",
        Alcotest.
          [
            test_case "full adder roundtrip" `Quick aiger_roundtrip_fa;
            test_case "parse errors" `Quick aiger_parse_errors;
          ]
        @ qt [ aiger_roundtrip_random ] );
      ( "opt",
        Alcotest.
          [
            test_case "balance chain depth" `Quick balance_chain_depth;
            test_case "balance not deeper" `Quick balance_not_deeper;
            test_case "rewrite removes redundancy" `Quick rewrite_reduces_redundancy;
            test_case "resyn2rs equivalence + benefit" `Slow resyn_monotone_benefit;
          ]
        @ qt
            [
              pass_preserves "balance preserves function" Opt.balance;
              pass_preserves "rewrite preserves function" (fun a -> Opt.rewrite a);
              pass_preserves "refactor preserves function" (fun a -> Opt.refactor a);
              pass_preserves "rewrite -z preserves function" (fun a ->
                  Opt.rewrite ~zero_cost:true a);
            ] );
    ]
