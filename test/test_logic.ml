module T = Logic.Truthtable
module B = Logic.Bitvec
module E = Logic.Expr

let tt = Alcotest.testable T.pp T.equal

(* ------------------------------------------------------------------ *)
(* Prng *)

let prng_deterministic () =
  let a = Logic.Prng.create 7L and b = Logic.Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Logic.Prng.next64 a) (Logic.Prng.next64 b)
  done

let prng_bounds () =
  let rng = Logic.Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Logic.Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let prng_float_range () =
  let rng = Logic.Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Logic.Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

(* ------------------------------------------------------------------ *)
(* Bitvec *)

let bitvec_get_set () =
  let v = B.create 130 in
  B.set v 0 true;
  B.set v 64 true;
  B.set v 129 true;
  Alcotest.(check bool) "bit 0" true (B.get v 0);
  Alcotest.(check bool) "bit 1" false (B.get v 1);
  Alcotest.(check bool) "bit 64" true (B.get v 64);
  Alcotest.(check bool) "bit 129" true (B.get v 129);
  Alcotest.(check int) "popcount" 3 (B.popcount v)

let bitvec_lognot_respects_length () =
  let v = B.create 70 in
  let nv = B.lognot v in
  Alcotest.(check int) "popcount of ~0 over 70 bits" 70 (B.popcount nv)

(* An empty vector still owns one storage word; no operation may leave
   bits in it. *)
let bitvec_empty_lognot () =
  Alcotest.(check int) "popcount of ~0 over 0 bits" 0 (B.popcount (B.lognot (B.create 0)))

let bitvec_empty_fill_random () =
  let v = B.create 0 in
  B.fill_random (Logic.Prng.create 7L) v;
  Alcotest.(check int) "popcount of a random 0-bit vector" 0 (B.popcount v)

let bitvec_ops () =
  let rng = Logic.Prng.create 3L in
  let a = B.create 200 and b = B.create 200 in
  B.fill_random rng a;
  B.fill_random rng b;
  let x = B.logxor a b in
  for i = 0 to 199 do
    Alcotest.(check bool) "xor bit" (B.get a i <> B.get b i) (B.get x i)
  done

let bitvec_transitions_small () =
  let v = B.create 6 in
  (* 010110: toggles 0-1,1-0,0-1,1-1,1-0 = 4 *)
  List.iteri (fun i b -> B.set v i b) [ false; true; false; true; true; false ];
  Alcotest.(check int) "transitions" 4 (B.transitions v)

let bitvec_transitions_word_boundary () =
  let v = B.create 128 in
  B.set v 63 true;
  Alcotest.(check int) "transitions across word seam" 2 (B.transitions v)

let bitvec_transitions_matches_naive () =
  let rng = Logic.Prng.create 11L in
  (* Multiples of 37 land anywhere in a word; the rest sit on and next to
     word boundaries, where the seam bit is folded in. *)
  List.iter
    (fun len ->
      let v = B.create len in
      B.fill_random rng v;
      let naive = ref 0 in
      for i = 0 to B.length v - 2 do
        if B.get v i <> B.get v (i + 1) then incr naive
      done;
      Alcotest.(check int)
        (Printf.sprintf "naive transitions, %d bits" len)
        !naive (B.transitions v))
    (List.init 8 (fun i -> (i + 1) * 37) @ [ 1; 63; 64; 65; 128; 129 ])

(* ------------------------------------------------------------------ *)
(* Truthtable *)

let tt_vars_small () =
  let x0 = T.var 2 0 and x1 = T.var 2 1 in
  Alcotest.(check bool) "x0(01)=1" true (T.eval x0 1);
  Alcotest.(check bool) "x0(10)=0" false (T.eval x0 2);
  Alcotest.(check bool) "x1(10)=1" true (T.eval x1 2);
  Alcotest.check tt "and" (T.of_int64 2 8L) (T.logand x0 x1)

let tt_vars_large () =
  let x7 = T.var 8 7 in
  Alcotest.(check bool) "x7 low" false (T.eval x7 0);
  Alcotest.(check bool) "x7 high" true (T.eval x7 128);
  Alcotest.(check int) "count" 128 (T.count_ones x7)

let tt_cofactor () =
  let n = 3 in
  let f = T.logor (T.logand (T.var n 0) (T.var n 1)) (T.var n 2) in
  Alcotest.check tt "f|x2=1 is const 1" (T.const n true) (T.cofactor f 2 true);
  Alcotest.check tt "f|x2=0 = x0&x1"
    (T.logand (T.var n 0) (T.var n 1))
    (T.cofactor f 2 false)

let tt_cofactor_high_var () =
  let n = 8 in
  let f = T.logxor (T.var n 7) (T.var n 0) in
  Alcotest.check tt "f|x7=0 = x0" (T.var n 0) (T.cofactor f 7 false);
  Alcotest.check tt "f|x7=1 = !x0" (T.lognot (T.var n 0)) (T.cofactor f 7 true)

let tt_support () =
  let n = 5 in
  let f = T.logxor (T.var n 1) (T.var n 3) in
  Alcotest.(check (list int)) "support" [ 1; 3 ] (T.support f)

let tt_shrink_expand () =
  let n = 5 in
  let f = T.logand (T.var n 2) (T.var n 4) in
  let s = T.shrink f in
  Alcotest.(check int) "shrunk to 2 vars" 2 (T.nvars s);
  Alcotest.check tt "shrunk = x0&x1" (T.logand (T.var 2 0) (T.var 2 1)) s;
  let e = T.expand s 4 in
  Alcotest.check tt "expand" (T.logand (T.var 4 0) (T.var 4 1)) e

let tt_permute () =
  let n = 3 in
  let f = T.logand (T.var n 0) (T.lognot (T.var n 2)) in
  (* variable i of f becomes variable p(i): with p = (1 2 0),
     x0 -> x1 and x2 -> x0 *)
  let g = T.permute f [| 1; 2; 0 |] in
  Alcotest.check tt "permuted" (T.logand (T.var n 1) (T.lognot (T.var n 0))) g;
  (* applying the 3-cycle three times is the identity *)
  let h = T.permute (T.permute g [| 1; 2; 0 |]) [| 1; 2; 0 |] in
  Alcotest.check tt "3-cycle identity" f h

let tt_permute_identity () =
  let n = 4 in
  let f = T.logxor (T.var n 0) (T.logand (T.var n 1) (T.var n 3)) in
  Alcotest.check tt "id perm" f (T.permute f [| 0; 1; 2; 3 |])

let tt_flip_input () =
  let n = 2 in
  let xor = T.logxor (T.var n 0) (T.var n 1) in
  Alcotest.check tt "flip gives xnor" (T.lognot xor) (T.flip_input xor 0)

let tt_int64_roundtrip () =
  let f = T.of_int64 4 0x6996L in
  Alcotest.(check int64) "roundtrip" 0x6996L (T.to_int64 f);
  let parity =
    List.fold_left (fun acc i -> T.logxor acc (T.var 4 i)) (T.const 4 false) [ 0; 1; 2; 3 ]
  in
  Alcotest.check tt "0x6996 is parity4" parity f

let qcheck_tt_gen n =
  QCheck.Gen.(
    map (fun bits -> T.of_bits n (Array.of_list bits)) (list_size (return (1 lsl n)) bool))

let isop_covers_exactly n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "isop covers exactly (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f -> T.equal f (T.of_cubes n (T.isop f)))

let isop_irredundant n =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "isop irredundant (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f ->
      let cubes = T.isop f in
      List.for_all
        (fun c ->
          let rest = List.filter (fun c' -> c' <> c) cubes in
          not (T.equal f (T.of_cubes n rest)))
        cubes)

(* ------------------------------------------------------------------ *)
(* Expr *)

let expr_smart_constructors () =
  Alcotest.(check bool) "and [] = 1" true (E.and_ [] = E.Const true);
  Alcotest.(check bool) "or [] = 0" true (E.or_ [] = E.Const false);
  Alcotest.(check bool) "not not x" true (E.not_ (E.not_ (E.var 3)) = E.var 3);
  Alcotest.(check bool) "and with 0" true (E.and_ [ E.var 0; E.const false ] = E.Const false);
  Alcotest.(check bool) "xor with 1 flips" true
    (E.xor [ E.var 0; E.const true ] = E.Not (E.Var 0))

let expr_eval_tt () =
  let e = E.or_ [ E.and_ [ E.var 0; E.var 1 ]; E.xor [ E.var 1; E.var 2 ] ] in
  let f = E.to_tt 3 e in
  for m = 0 to 7 do
    let env i = (m lsr i) land 1 = 1 in
    Alcotest.(check bool) "agree" (E.eval env e) (T.eval f m)
  done

let factor_preserves_function n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "factor preserves function (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f -> T.equal f (E.to_tt n (E.factor (T.isop f))))

let factor_tt_preserves n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "factor_tt preserves function (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f -> T.equal f (E.to_tt n (E.factor_tt f)))

let factor_tt_finds_xor () =
  let n = 3 in
  let parity =
    List.fold_left (fun acc i -> T.logxor acc (T.var n i)) (T.const n false) [ 0; 1; 2 ]
  in
  match E.factor_tt parity with
  | E.Xor [ E.Var 0; E.Var 1; E.Var 2 ] -> ()
  | e -> Alcotest.failf "expected Xor node, got %a" E.pp e

let expr_size_depth () =
  let e = E.and_ [ E.var 0; E.var 1; E.var 2; E.var 3 ] in
  Alcotest.(check int) "size of and4" 3 (E.size e);
  Alcotest.(check int) "depth of and4" 2 (E.depth e)

(* ------------------------------------------------------------------ *)
(* Bdd *)

module Bdd = Logic.Bdd

let bdd_basics () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check bool) "x & !x = 0" true
    (Bdd.equal (Bdd.and_ m x (Bdd.not_ m x)) (Bdd.zero m));
  Alcotest.(check bool) "x + !x = 1" true
    (Bdd.equal (Bdd.or_ m x (Bdd.not_ m x)) (Bdd.one m));
  Alcotest.(check bool) "xor self" true (Bdd.equal (Bdd.xor m x x) (Bdd.zero m));
  Alcotest.(check bool) "commutativity" true
    (Bdd.equal (Bdd.and_ m x y) (Bdd.and_ m y x));
  Alcotest.(check bool) "de morgan" true
    (Bdd.equal
       (Bdd.not_ m (Bdd.and_ m x y))
       (Bdd.or_ m (Bdd.not_ m x) (Bdd.not_ m y)))

let bdd_hash_consing_canonical () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  (* (x&y)|(x&z) == x&(y|z): physically equal after reduction *)
  let a = Bdd.or_ m (Bdd.and_ m x y) (Bdd.and_ m x z) in
  let b = Bdd.and_ m x (Bdd.or_ m y z) in
  Alcotest.(check bool) "distribution canonical" true (Bdd.equal a b)

let bdd_matches_tt n =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "bdd of_tt eval matches tt (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f ->
      let m = Bdd.manager () in
      let b = Bdd.of_tt m f in
      let ok = ref true in
      for v = 0 to (1 lsl n) - 1 do
        let env i = (v lsr i) land 1 = 1 in
        if Bdd.eval b env <> T.eval f v then ok := false
      done;
      !ok)

let bdd_sat_count_matches n =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "bdd sat_count = count_ones (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f ->
      let m = Bdd.manager () in
      let b = Bdd.of_tt m f in
      abs_float (Bdd.sat_count b ~nvars:n -. float_of_int (T.count_ones f)) < 0.5)

let bdd_of_expr_matches n =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "bdd of_expr = of_tt (n=%d)" n)
    (QCheck.make (qcheck_tt_gen n))
    (fun f ->
      let m = Bdd.manager () in
      Bdd.equal (Bdd.of_expr m (E.factor_tt f)) (Bdd.of_tt m f))

let bdd_parity_linear_size () =
  (* Parity has a linear-size BDD: 2n-1 decision nodes. *)
  let m = Bdd.manager () in
  let n = 16 in
  let parity =
    List.fold_left (fun acc i -> Bdd.xor m acc (Bdd.var m i)) (Bdd.zero m)
      (List.init n (fun i -> i))
  in
  Alcotest.(check int) "2n-1 nodes" ((2 * n) - 1) (Bdd.size parity)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "logic"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "bounds" `Quick prng_bounds;
          Alcotest.test_case "float range" `Quick prng_float_range;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "get/set/popcount" `Quick bitvec_get_set;
          Alcotest.test_case "lognot respects length" `Quick bitvec_lognot_respects_length;
          Alcotest.test_case "lognot of an empty vector" `Quick bitvec_empty_lognot;
          Alcotest.test_case "fill_random of an empty vector" `Quick bitvec_empty_fill_random;
          Alcotest.test_case "xor bitwise" `Quick bitvec_ops;
          Alcotest.test_case "transitions small" `Quick bitvec_transitions_small;
          Alcotest.test_case "transitions word boundary" `Quick bitvec_transitions_word_boundary;
          Alcotest.test_case "transitions naive equiv" `Quick bitvec_transitions_matches_naive;
        ] );
      ( "truthtable",
        [
          Alcotest.test_case "vars small" `Quick tt_vars_small;
          Alcotest.test_case "vars large" `Quick tt_vars_large;
          Alcotest.test_case "cofactor" `Quick tt_cofactor;
          Alcotest.test_case "cofactor high var" `Quick tt_cofactor_high_var;
          Alcotest.test_case "support" `Quick tt_support;
          Alcotest.test_case "shrink/expand" `Quick tt_shrink_expand;
          Alcotest.test_case "permute 3-cycle" `Quick tt_permute;
          Alcotest.test_case "permute identity" `Quick tt_permute_identity;
          Alcotest.test_case "flip input" `Quick tt_flip_input;
          Alcotest.test_case "int64 roundtrip / parity" `Quick tt_int64_roundtrip;
        ] );
      ( "isop",
        qt
          [
            isop_covers_exactly 3;
            isop_covers_exactly 5;
            isop_covers_exactly 8;
            isop_irredundant 4;
          ] );
      ( "bdd",
        Alcotest.
          [
            test_case "basics" `Quick bdd_basics;
            test_case "hash consing canonical" `Quick bdd_hash_consing_canonical;
            test_case "parity linear size" `Quick bdd_parity_linear_size;
          ]
        @ qt [ bdd_matches_tt 5; bdd_sat_count_matches 6; bdd_of_expr_matches 5 ] );
      ( "expr",
        Alcotest.
          [
            test_case "smart constructors" `Quick expr_smart_constructors;
            test_case "eval matches tt" `Quick expr_eval_tt;
            test_case "factor_tt finds xor" `Quick factor_tt_finds_xor;
            test_case "size/depth" `Quick expr_size_depth;
          ]
        @ qt [ factor_preserves_function 4; factor_preserves_function 6; factor_tt_preserves 5 ]
      );
    ]
