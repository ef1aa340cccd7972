module A = Aigs.Aig
module M = Techmap
module G = Cell.Genlib
module T = Logic.Truthtable

let matchlibs =
  lazy (List.map (fun lib -> (lib, M.Matchlib.build lib)) G.all_libraries)

let ml_gen () = snd (List.hd (Lazy.force matchlibs))
let ml_of name = snd (List.find (fun (l, _) -> l.G.name = name) (Lazy.force matchlibs))

(* ------------------------------------------------------------------ *)
(* Matchlib *)

let lookup_nand2 () =
  let ml = ml_gen () in
  let f = T.lognot (T.logand (T.var 2 0) (T.var 2 1)) in
  let cands = M.Matchlib.lookup ml f in
  Alcotest.(check bool) "has NAND2" true
    (List.exists
       (fun (c : M.Matchlib.candidate) -> c.gate.G.cell.Cell.Cells.name = "NAND2")
       cands)

let lookup_respects_permutation () =
  let ml = ml_gen () in
  (* !((x1 ^ x0) & x2): GNAND2B with permuted pins. *)
  let f = T.lognot (T.logand (T.logxor (T.var 3 1) (T.var 3 0)) (T.var 3 2)) in
  let cands = M.Matchlib.lookup ml f in
  Alcotest.(check bool) "nonempty" true (cands <> []);
  (* Every candidate must actually compute f when wired per (perm, mask). *)
  List.iter
    (fun (c : M.Matchlib.candidate) ->
      let g = Cell.Cells.tt c.gate.G.cell in
      let k = c.gate.G.cell.Cell.Cells.pins in
      let recomputed = ref g in
      for j = 0 to k - 1 do
        if (c.inv_mask lsr j) land 1 = 1 then recomputed := T.flip_input !recomputed j
      done;
      let recomputed = T.permute !recomputed c.perm in
      Alcotest.(check bool)
        (c.gate.G.cell.Cell.Cells.name ^ " binding correct")
        true
        (T.equal recomputed f))
    cands

let lookup_unknown_function () =
  let ml = ml_of "cmos" in
  (* 4-input parity has no single-gate realization in the CMOS library. *)
  let parity =
    List.fold_left (fun acc i -> T.logxor acc (T.var 4 i)) (T.const 4 false) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "no match" 0 (List.length (M.Matchlib.lookup ml parity))

let generalized_matches_xor_shapes () =
  let ml = ml_gen () in
  let gnand = T.lognot (T.logand (T.logxor (T.var 4 0) (T.var 4 2)) (T.logxor (T.var 4 1) (T.var 4 3))) in
  Alcotest.(check bool) "GNAND2 shape matched" true (M.Matchlib.lookup ml gnand <> [])

(* The generic enumeration Matchlib used to run, kept as the reference
   for its word-level one: every (perm, inv_mask) variant of every gate
   rebuilt through T.flip_input / T.permute and filtered by T.support,
   gates in library order, permutations lexicographic, inv_mask
   ascending, each pushed through the same insert policy. *)
let rec permutations = function
  | [] -> [ [] ]
  | items ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) items)))
        items

let reference_tables lib =
  let tables = Hashtbl.create 4096 and entries = ref 0 in
  let area (c : M.Matchlib.candidate) = c.gate.G.area
  and delay (c : M.Matchlib.candidate) = c.gate.G.delay in
  let insert key cand =
    let existing = Option.value ~default:[] (Hashtbl.find_opt tables key) in
    if
      not
        (List.exists
           (fun c -> area c <= area cand && delay c <= delay cand)
           existing)
    then begin
      let merged =
        List.sort (fun a b -> compare (area a) (area b)) (cand :: existing)
      in
      let by_area = List.filteri (fun i _ -> i < 3) merged in
      let fastest =
        List.fold_left
          (fun acc c -> if delay c < delay acc then c else acc)
          (List.hd merged) merged
      in
      let kept =
        if List.memq fastest by_area then by_area else fastest :: by_area
      in
      entries := !entries + List.length kept - List.length existing;
      Hashtbl.replace tables key kept
    end
  in
  List.iter
    (fun (gate : G.gate) ->
      let k = gate.G.cell.Cell.Cells.pins in
      if k >= 1 && k <= M.Matchlib.max_pins then begin
        let base = Cell.Cells.tt gate.G.cell in
        List.iter
          (fun perm ->
            let perm = Array.of_list perm in
            for inv_mask = 0 to (1 lsl k) - 1 do
              let flipped = ref base in
              for j = 0 to k - 1 do
                if (inv_mask lsr j) land 1 = 1 then
                  flipped := T.flip_input !flipped j
              done;
              let variant = T.permute !flipped perm in
              if List.length (T.support variant) = k then
                insert (k, T.to_int64 variant) { M.Matchlib.gate; perm; inv_mask }
            done)
          (permutations (List.init k Fun.id))
      end)
    lib.G.gates;
  (tables, !entries)

let describe cands =
  List.map
    (fun (c : M.Matchlib.candidate) ->
      (c.gate.G.cell.Cell.Cells.name, Array.to_list c.perm, c.inv_mask))
    cands

let matchlib_equals_reference lib () =
  let ml = M.Matchlib.build lib in
  let tables, entries = reference_tables lib in
  Alcotest.(check int) "size" entries (M.Matchlib.size ml);
  Hashtbl.iter
    (fun (k, key) cands ->
      Alcotest.(check (list (triple string (list int) int)))
        (Printf.sprintf "candidates of %d:%016Lx" k key)
        (describe cands)
        (describe (M.Matchlib.lookup ml (T.of_int64 k key))))
    tables

let ptl_ambipolar () =
  match Cell.Libfile.load_file "../data/libraries/ptl-ambipolar.genlibp" with
  | Ok lib -> lib
  | Error e -> Alcotest.failf "load: %a" Runtime.Cnt_error.pp e

(* ------------------------------------------------------------------ *)
(* Mapper *)

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

let output_functions aig =
  let leaves = A.input_lits aig in
  Array.map
    (fun (name, lit) ->
      let base = A.cone_tt aig (A.node_of_lit lit) leaves in
      (name, if A.is_complemented lit then T.lognot base else base))
    (A.outputs aig)

let mapped_output_functions (m : M.Mapped.t) n =
  (* Exhaustive simulation over n inputs. *)
  let patterns = 1 lsl n in
  let stimulus =
    Array.init n (fun i ->
        let v = Logic.Bitvec.create patterns in
        for p = 0 to patterns - 1 do
          Logic.Bitvec.set v p ((p lsr i) land 1 = 1)
        done;
        v)
  in
  let values = M.Mapped.simulate m stimulus in
  Array.map
    (fun (name, net) ->
      let bits = Array.init patterns (fun p -> Logic.Bitvec.get values.(net) p) in
      (name, T.of_bits n bits))
    m.M.Mapped.po_nets

let mapping_preserves_function lib_name =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "mapping preserves function (%s)" lib_name)
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 1)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:4 in
      let ml = ml_of lib_name in
      let m = M.Mapper.map ml aig in
      let ref_fns = output_functions aig in
      let got_fns = mapped_output_functions m 6 in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) ref_fns got_fns)

let mapping_area_objective_not_larger () =
  (* Area flow is a heuristic, so compare the two objectives on average
     over a batch of random subject graphs, not per instance. *)
  let rng = Logic.Prng.create 4242L in
  let ml = ml_gen () in
  let area_d = ref 0.0 and area_a = ref 0.0 in
  let delay_d = ref 0.0 and delay_a = ref 0.0 in
  for _ = 1 to 10 do
    let aig = random_aig rng ~inputs:8 ~ands:80 ~outs:5 in
    let md = M.Mapper.map ~objective:M.Mapper.Delay ml aig in
    let ma = M.Mapper.map ~objective:M.Mapper.Area ml aig in
    area_d := !area_d +. M.Mapped.area md;
    area_a := !area_a +. M.Mapped.area ma;
    delay_d := !delay_d +. M.Mapped.delay md;
    delay_a := !delay_a +. M.Mapped.delay ma
  done;
  Alcotest.(check bool)
    (Printf.sprintf "avg area %.0f <= %.0f" !area_a !area_d)
    true (!area_a <= !area_d +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "avg delay %.3g <= %.3g" !delay_d !delay_a)
    true
    (!delay_d <= !delay_a +. 1e-18)

let xor_maps_to_single_gate () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check int) "one gate" 1 (M.Mapped.num_gates m);
  match M.Mapped.gate_histogram m with
  | [ ("XOR2", 1) ] -> ()
  | h ->
      Alcotest.failf "expected XOR2 x1, got %s"
        (String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s x%d" n c) h))

let xor_in_cmos_needs_several_gates () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_of "cmos") aig in
  Alcotest.(check bool)
    (Printf.sprintf "gates %d > 1" (M.Mapped.num_gates m))
    true
    (M.Mapped.num_gates m > 1)

let constant_output () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  A.add_output aig "zero" (A.mk_and aig a (A.lit_not a));
  A.add_output aig "one" A.const_true;
  let m = M.Mapper.map (ml_gen ()) aig in
  let values = M.Mapped.simulate m [| Logic.Bitvec.create 8 |] in
  let net name =
    let _, n = Array.to_list m.M.Mapped.po_nets |> List.find (fun (x, _) -> x = name) in
    n
  in
  Alcotest.(check int) "zero net all 0" 0 (Logic.Bitvec.popcount values.(net "zero"));
  Alcotest.(check int) "one net all 1" 8 (Logic.Bitvec.popcount values.(net "one"))

let inverter_inserted_for_negated_output () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  A.add_output aig "na" (A.lit_not a);
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check int) "one INV" 1 (M.Mapped.num_gates m);
  match M.Mapped.gate_histogram m with
  | [ ("INV", 1) ] -> ()
  | _ -> Alcotest.fail "expected a single INV"

(* ------------------------------------------------------------------ *)
(* Mapped analysis + Estimate *)

let delay_is_path_sum () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" and c = A.add_input aig "c" in
  A.add_output aig "y" (A.mk_and aig (A.mk_and aig a b) c);
  let ml = ml_gen () in
  let m = M.Mapper.map ml aig in
  let arr = M.Mapped.arrival_times m in
  Array.iter (fun (_, net) -> Alcotest.(check bool) "nonneg" true (arr.(net) >= 0.0)) m.M.Mapped.po_nets;
  Alcotest.(check bool) "delay positive" true (M.Mapped.delay m > 0.0)

let estimate_scales_with_activity () =
  (* The same netlist estimated with constant-zero inputs must show zero
     dynamic power; with random inputs, positive. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let r = M.Estimate.run ~patterns:4096 m in
  Alcotest.(check bool) "dynamic > 0" true (r.M.Estimate.dynamic > 0.0);
  Alcotest.(check bool) "static > 0" true (r.M.Estimate.static > 0.0);
  Alcotest.(check bool) "psc = 0.15 pd" true
    (abs_float (r.M.Estimate.short_circuit -. (0.15 *. r.M.Estimate.dynamic)) < 1e-18);
  Alcotest.(check bool) "total consistent" true
    (abs_float
       (r.M.Estimate.total
       -. (r.M.Estimate.dynamic +. r.M.Estimate.short_circuit +. r.M.Estimate.static
         +. r.M.Estimate.gate_leak))
    < 1e-15)

let estimate_deterministic () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let r1 = M.Estimate.run ~patterns:8192 ~seed:5L m in
  let r2 = M.Estimate.run ~patterns:8192 ~seed:5L m in
  Alcotest.(check (float 0.0)) "same dynamic" r1.M.Estimate.dynamic r2.M.Estimate.dynamic;
  Alcotest.(check (float 0.0)) "same static" r1.M.Estimate.static r2.M.Estimate.static

let suite_circuit_mapping name =
  Alcotest.test_case (name ^ " maps and verifies") `Slow (fun () ->
      let entry = Circuits.Suite.find name in
      let nl = entry.Circuits.Suite.generate () in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
      List.iter
        (fun (lib, ml) ->
          let m = M.Mapper.map ml aig in
          Alcotest.(check bool)
            (name ^ " equivalent under " ^ lib.G.name)
            true
            (M.Mapped.check m nl ~patterns:512 ~seed:77L))
        (Lazy.force matchlibs))

let generalized_maps_fewer_gates_on_ecc () =
  let entry = Circuits.Suite.find "C1355" in
  let nl = entry.Circuits.Suite.generate () in
  let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
  let m_gen = M.Mapper.map (ml_gen ()) aig in
  let m_cmos = M.Mapper.map (ml_of "cmos") aig in
  Alcotest.(check bool)
    (Printf.sprintf "gen %d < cmos %d gates" (M.Mapped.num_gates m_gen) (M.Mapped.num_gates m_cmos))
    true
    (float_of_int (M.Mapped.num_gates m_gen)
    < 0.6 *. float_of_int (M.Mapped.num_gates m_cmos))

(* Per suite circuit: ANDs after resyn2rs, then cells mapped with the
   generalized, conventional and CMOS families. Every Table 1 row is
   built on these, so a change to cut enumeration, rewriting or mapping
   that moves one fails here. Totals: 14 425 ANDs, 53 743 cells. *)
let pinned_counts =
  [
    ("C2670", 591, [ 512; 677; 677 ]);
    ("C1908", 195, [ 90; 294; 294 ]);
    ("C3540", 1074, [ 895; 1482; 1482 ]);
    ("dalu", 1100, [ 794; 1359; 1359 ]);
    ("C7552", 2029, [ 1647; 2728; 2728 ]);
    ("C6288", 2334, [ 2983; 3653; 3653 ]);
    ("C5315", 1234, [ 1087; 1521; 1521 ]);
    ("des", 2672, [ 1683; 3564; 3564 ]);
    ("i10", 1509, [ 1565; 2487; 2487 ]);
    ("t481", 532, [ 402; 902; 902 ]);
    ("i8", 787, [ 886; 1295; 1295 ]);
    ("C1355", 368, [ 165; 555; 555 ]);
  ]

let suite_counts_pinned () =
  let families = [ "cntfet-generalized"; "cntfet-conventional"; "cmos" ] in
  Alcotest.(check (list string))
    "every suite circuit pinned"
    (List.map (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name) Circuits.Suite.all)
    (List.map (fun (name, _, _) -> name) pinned_counts);
  List.iter
    (fun (name, ands, cells) ->
      let entry = Circuits.Suite.find name in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist (entry.Circuits.Suite.generate ())) in
      Alcotest.(check int) (name ^ " ANDs") ands (A.num_ands aig);
      List.iter2
        (fun family expected ->
          let m = M.Mapper.map (ml_of family) aig in
          Alcotest.(check int) (name ^ " cells, " ^ family) expected (M.Mapped.num_gates m))
        families cells)
    pinned_counts

(* ------------------------------------------------------------------ *)
(* Verify (exact BDD-based CEC) *)

let verify_agrees_with_simulation =
  QCheck.Test.make ~count:30 ~name:"BDD CEC agrees on random AIG mappings"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 77)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:3 in
      let nl = A.to_netlist aig in
      let m = M.Mapper.map (ml_gen ()) aig in
      M.Verify.equiv_netlist_mapped nl m)

let verify_detects_bugs () =
  (* Mutate a mapped netlist by swapping a cell's gate; CEC must catch it. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let nl = A.to_netlist aig in
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check bool) "correct mapping passes" true (M.Verify.equiv_netlist_mapped nl m);
  let nor2 = Cell.Genlib.find_gate Cell.Genlib.generalized_cntfet "NOR2" in
  let broken =
    {
      m with
      M.Mapped.cells =
        Array.map
          (fun (c : M.Mapped.cell) ->
            if Array.length c.M.Mapped.inputs = 2 then { c with M.Mapped.gate = nor2 } else c)
          m.M.Mapped.cells;
    }
  in
  Alcotest.(check bool) "mutated mapping fails" false
    (M.Verify.equiv_netlist_mapped nl broken)

let verify_exact_on_suite () =
  List.iter
    (fun name ->
      let entry = Circuits.Suite.find name in
      let nl = entry.Circuits.Suite.generate () in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
      Alcotest.(check bool) (name ^ " aig exact") true (M.Verify.equiv_netlist_aig nl aig);
      let m = M.Mapper.map (ml_gen ()) aig in
      Alcotest.(check bool) (name ^ " mapped exact") true (M.Verify.equiv_netlist_mapped nl m))
    [ "C1355"; "C1908" ]

let verify_too_large_guard () =
  (* The 16x16 multiplier is BDD-hostile: the node budget must trip rather
     than hang. *)
  let nl = Circuits.Multiplier.generate ~width:16 in
  let aig = A.of_netlist nl in
  Alcotest.check_raises "budget" M.Verify.Too_large (fun () ->
      ignore (M.Verify.equiv_netlist_aig ~max_nodes:50_000 nl aig))

(* ------------------------------------------------------------------ *)
(* Verilog writer *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let verilog_structural () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let v = M.Verilog.write_string ~module_name:"xor_top" m in
  Alcotest.(check bool) "module header" true (contains v "module xor_top(");
  Alcotest.(check bool) "instantiates XOR2" true (contains v "XOR2 u0 (");
  Alcotest.(check bool) "output assign" true (contains v "assign y = ");
  let lib = M.Verilog.cell_library_string Cell.Genlib.generalized_cntfet in
  Alcotest.(check bool) "library has XOR2 module" true (contains lib "module XOR2(A, B, Y)");
  Alcotest.(check bool) "verilog operators" true (contains lib "assign Y = A ^ B")

let wire_load_increases_power () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let base = M.Estimate.run ~patterns:4096 m in
  let loaded = M.Estimate.run ~patterns:4096 ~wire_cap_per_fanout:50e-18 m in
  Alcotest.(check bool) "wire load raises dynamic power" true
    (loaded.M.Estimate.dynamic > base.M.Estimate.dynamic);
  Alcotest.(check (float 1e-12)) "static unchanged" base.M.Estimate.static
    loaded.M.Estimate.static

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "techmap"
    [
      ( "matchlib",
        [
          Alcotest.test_case "nand2 lookup" `Quick lookup_nand2;
          Alcotest.test_case "permutation binding" `Quick lookup_respects_permutation;
          Alcotest.test_case "unknown function" `Quick lookup_unknown_function;
          Alcotest.test_case "generalized xor shapes" `Quick generalized_matches_xor_shapes;
        ]
        @ List.map
            (fun (lib : G.t) ->
              Alcotest.test_case
                ("equals reference enumeration: " ^ lib.G.name)
                `Slow (matchlib_equals_reference lib))
            G.all_libraries
        @ [
            Alcotest.test_case "equals reference enumeration: ptl-ambipolar"
              `Slow (fun () -> matchlib_equals_reference (ptl_ambipolar ()) ());
          ] );
      ( "mapper",
        Alcotest.
          [
            test_case "xor single gate" `Quick xor_maps_to_single_gate;
            test_case "xor several gates in cmos" `Quick xor_in_cmos_needs_several_gates;
            test_case "constant outputs" `Quick constant_output;
            test_case "negated PI output" `Quick inverter_inserted_for_negated_output;
            test_case "area objective" `Slow mapping_area_objective_not_larger;
          ]
        @ qt
            [
              mapping_preserves_function "cntfet-generalized";
              mapping_preserves_function "cmos";
            ] );
      ( "verify",
        Alcotest.
          [
            test_case "detects bugs" `Quick verify_detects_bugs;
            test_case "exact on ECC rows" `Slow verify_exact_on_suite;
            test_case "too-large guard" `Slow verify_too_large_guard;
          ]
        @ qt [ verify_agrees_with_simulation ] );
      ( "verilog+wireload",
        [
          Alcotest.test_case "structural verilog" `Quick verilog_structural;
          Alcotest.test_case "wire load" `Quick wire_load_increases_power;
        ] );
      ( "mapped+estimate",
        [
          Alcotest.test_case "arrival/delay" `Quick delay_is_path_sum;
          Alcotest.test_case "estimate components" `Quick estimate_scales_with_activity;
          Alcotest.test_case "estimate deterministic" `Quick estimate_deterministic;
          suite_circuit_mapping "C1355";
          suite_circuit_mapping "C1908";
          Alcotest.test_case "gen wins on ECC" `Slow generalized_maps_fewer_gates_on_ecc;
          Alcotest.test_case "suite ANDs and cells pinned" `Slow suite_counts_pinned;
        ] );
    ]
