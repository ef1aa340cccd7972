(* Cross-cutting integration tests: format roundtrips on real benchmark
   circuits and agreement between the three equivalence-checking engines
   (random co-simulation, BDD, SAT) on both correct and mutated designs. *)

module A = Aigs.Aig
module N = Nets.Netlist
module V = Techmap.Verify

let random_netlist rng ~inputs ~gates ~outputs =
  Circuits.Randlogic.generate ~inputs ~gates ~outputs
    ~seed:(Logic.Prng.next64 rng) ()

(* ------------------------------------------------------------------ *)
(* Format roundtrips on benchmark circuits *)

let blif_roundtrip_suite () =
  List.iter
    (fun name ->
      let nl = (Circuits.Suite.find name).Circuits.Suite.generate () in
      let nl2 = Nets.Blif.read_string (Nets.Blif.write_string nl) in
      Alcotest.(check bool) (name ^ " blif roundtrip equivalent") true
        (V.equiv_netlists nl nl2))
    [ "C1355"; "C1908" ]

let blif_roundtrip_random =
  QCheck.Test.make ~count:30 ~name:"blif roundtrip on random netlists"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 3)) in
      let nl = random_netlist rng ~inputs:8 ~gates:60 ~outputs:6 in
      let nl2 = Nets.Blif.read_string (Nets.Blif.write_string nl) in
      V.equiv_netlists nl nl2)

let aig_netlist_roundtrip =
  QCheck.Test.make ~count:30 ~name:"netlist -> aig -> netlist -> aig fixpoint"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 9)) in
      let nl = random_netlist rng ~inputs:7 ~gates:50 ~outputs:5 in
      let aig = A.of_netlist nl in
      let nl2 = A.to_netlist aig in
      V.equiv_netlists nl nl2)

(* ------------------------------------------------------------------ *)
(* Three-engine CEC agreement *)

(* Mutate one random LUT/gate of a netlist by rebuilding it with one node's
   function complemented. *)
let mutate rng nl =
  let size = N.size nl in
  (* pick a non-input node to flip *)
  let candidates = ref [] in
  N.iter_nodes nl (fun id op _ ->
      match op with
      | N.Input | N.Constant _ -> ()
      | N.Buf | N.Not | N.And | N.Or | N.Xor | N.Nand | N.Nor | N.Xnor | N.Mux
      | N.Maj | N.Lut _ -> candidates := id :: !candidates);
  let target = List.nth !candidates (Logic.Prng.int rng (List.length !candidates)) in
  let fresh = N.create () in
  let map = Array.make size (-1) in
  N.iter_nodes nl (fun id op fanins ->
      let mapped_fanins = Array.map (fun f -> map.(f)) fanins in
      map.(id) <-
        (match op with
        | N.Input -> N.add_input fresh (N.input_name nl id)
        | N.Constant _ | N.Buf | N.Not | N.And | N.Or | N.Xor | N.Nand | N.Nor
        | N.Xnor | N.Mux | N.Maj | N.Lut _ ->
            let node = N.add_node fresh op mapped_fanins in
            if id = target then N.add_node fresh N.Not [| node |] else node));
  Array.iter (fun (name, id) -> N.add_output fresh name map.(id)) (N.outputs nl);
  (fresh, target)

let engines_agree =
  QCheck.Test.make ~count:25 ~name:"sim/BDD/SAT agree on correct and mutated mappings"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 17)) in
      let nl = random_netlist rng ~inputs:7 ~gates:40 ~outputs:5 in
      let aig_good = A.of_netlist nl in
      let bdd_good = V.equiv_netlist_aig nl aig_good in
      let sat_good = V.sat_equiv_netlist_aig nl aig_good = V.Equivalent in
      let mutated, _ = mutate rng nl in
      let aig_bad = A.of_netlist mutated in
      (* The mutation may be functionally benign (masked); all engines must
         still agree with each other. *)
      let bdd_bad = V.equiv_netlist_aig nl aig_bad in
      let sat_bad = V.sat_equiv_netlist_aig nl aig_bad = V.Equivalent in
      bdd_good && sat_good && bdd_bad = sat_bad)

let mapped_three_engines () =
  let nl = Circuits.Hamming.corrector ~data_bits:8 in
  let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
  List.iter
    (fun lib ->
      let ml = Techmap.Matchlib.build lib in
      let m = Techmap.Mapper.map ml aig in
      Alcotest.(check bool) (lib.Cell.Genlib.name ^ " sim") true
        (Techmap.Mapped.check m nl ~patterns:2048 ~seed:3L);
      Alcotest.(check bool) (lib.Cell.Genlib.name ^ " bdd") true
        (V.equiv_netlist_mapped nl m);
      Alcotest.(check bool)
        (lib.Cell.Genlib.name ^ " sat")
        true
        (V.sat_equiv_netlist_mapped nl m = V.Equivalent))
    Cell.Genlib.all_libraries

(* ------------------------------------------------------------------ *)
(* Flow-level invariants *)

let optimization_never_breaks_suite () =
  (* resyn2rs + mapping on every small/medium suite row, verified by random
     co-simulation (the cheap engine), is already covered elsewhere for two
     rows — here sweep all 12 at low pattern count as a smoke invariant. *)
  List.iter
    (fun (e : Circuits.Suite.entry) ->
      let nl = e.Circuits.Suite.generate () in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
      let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
      let m = Techmap.Mapper.map ml aig in
      Alcotest.(check bool) (e.Circuits.Suite.name ^ " verified") true
        (Techmap.Mapped.check m nl ~patterns:256 ~seed:12L))
    Circuits.Suite.all

let estimate_pattern_count_convergence () =
  (* Dynamic power estimates at 64K and 256K patterns agree within 2%. *)
  let nl = Circuits.Hamming.corrector ~data_bits:16 in
  let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
  let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
  let m = Techmap.Mapper.map ml aig in
  let a = Techmap.Estimate.run ~patterns:65536 ~seed:1L m in
  let b = Techmap.Estimate.run ~patterns:262144 ~seed:2L m in
  let rel = abs_float (a.Techmap.Estimate.dynamic -. b.Techmap.Estimate.dynamic)
            /. b.Techmap.Estimate.dynamic in
  Alcotest.(check bool) (Printf.sprintf "rel diff %.4f < 0.02" rel) true (rel < 0.02)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "integration"
    [
      ( "roundtrips",
        Alcotest.
          [
            test_case "blif on ECC rows" `Slow blif_roundtrip_suite;
          ]
        @ qt [ blif_roundtrip_random; aig_netlist_roundtrip ] );
      ( "cec-engines",
        Alcotest.[ test_case "mapped: all three engines" `Slow mapped_three_engines ]
        @ qt [ engines_agree ] );
      ( "flow",
        [
          Alcotest.test_case "all 12 rows verified" `Slow optimization_never_breaks_suite;
          Alcotest.test_case "estimator convergence" `Slow estimate_pattern_count_convergence;
        ] );
    ]
