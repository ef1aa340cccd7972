(* Domain-parallel estimation: the pool's work-sharing contract, the
   PRNG jump that splits the stimulus stream, and bit-identical power
   estimates for any domain count, the estimator's sweep being the one
   pattern sweep that runs on more than one domain. *)

module B = Logic.Bitvec
module P = Logic.Prng
module D = Runtime.Dpool
module T = Runtime.Telemetry
module Sim = Nets.Sim

let tc = Alcotest.test_case

(* --- Dpool --------------------------------------------------------- *)

let pool_covers_all_units () =
  List.iter
    (fun (units, domains) ->
      let seen = Array.make (max 1 units) 0 in
      let stats =
        D.run ~domains ~min_units_per_domain:1 ~units (fun ~worker:_ ~lo ~len ->
            for u = lo to lo + len - 1 do
              seen.(u) <- seen.(u) + 1
            done)
      in
      if units > 0 then
        Array.iteri
          (fun u n ->
            Alcotest.(check int) (Printf.sprintf "unit %d once" u) 1 n)
          (Array.sub seen 0 units);
      Alcotest.(check int) "per-worker units sum"
        units
        (Array.fold_left ( + ) 0 stats.D.units))
    [ (0, 4); (1, 4); (7, 2); (64, 4); (1000, 3); (1000, 1) ]

let pool_small_work_is_sequential () =
  let stats =
    D.run ~domains:4 ~min_units_per_domain:256 ~units:100
      (fun ~worker ~lo:_ ~len:_ -> Alcotest.(check int) "worker 0" 0 worker)
  in
  Alcotest.(check int) "one domain" 1 stats.D.domains_used

let pool_chunks_below_min_share () =
  (* The minimum share sets the domain count only; the estimator's 16
     blocks on 2 domains split into 16 chunks, not 4 of the share's size. *)
  let stats =
    D.run ~domains:2 ~min_units_per_domain:4 ~units:16 (fun ~worker:_ ~lo:_ ~len:_ -> ())
  in
  Alcotest.(check int) "two domains" 2 stats.D.domains_used;
  Alcotest.(check int) "chunks" 16 stats.D.chunks

let pool_propagates_exception () =
  Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
      ignore
        (D.run ~domains:2 ~min_units_per_domain:1 ~units:64
           (fun ~worker:_ ~lo ~len:_ -> if lo = 0 then failwith "boom")))

let pool_default_respects_env () =
  (* set_default overrides everything; None falls back to env/auto. *)
  D.set_default (Some 3);
  Alcotest.(check int) "configured" 3 (D.default_domains ());
  D.set_default None;
  Alcotest.(check bool) "auto >= 1" true (D.default_domains () >= 1)

(* CNTPOWER_DOMAINS validation runs in a forked child so the parent's
   environment (and the other env-sensitive tests) stay untouched —
   [Unix.putenv] has no inverse. These tests are registered BEFORE any
   pool test: OCaml 5 forbids [Unix.fork] once a domain has ever been
   spawned, and the pool tests spawn domains. *)
let in_child f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> ( try Unix._exit (if f () then 0 else 1) with _ -> Unix._exit 2)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> true
      | _ -> false)

let env_domains_validation () =
  List.iter
    (fun (value, expect_ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "CNTPOWER_DOMAINS=%S" value)
        true
        (in_child (fun () ->
             Unix.putenv D.env_var value;
             match D.env_domains_checked () with
             | Ok (Some n) -> expect_ok && n >= 1
             | Ok None -> false (* set but reported unset *)
             | Error msg ->
                 (* reject with a diagnostic that names the variable *)
                 let contains hay needle =
                   let nh = String.length hay and nn = String.length needle in
                   let rec go i =
                     i + nn <= nh
                     && (String.sub hay i nn = needle || go (i + 1))
                   in
                   go 0
                 in
                 (not expect_ok) && contains msg D.env_var)))
    [
      ("4", true);
      ("1", true);
      ("banana", false);
      ("0", false);
      ("-2", false);
      ("", false);
      ("999", false);
    ]

let env_domains_unset_is_none () =
  (* In this suite nothing sets the variable in the parent, so checked ()
     must report "unset" rather than an error or a phantom value. *)
  match Sys.getenv_opt D.env_var with
  | Some _ -> () (* ambient CI value: covered by the cases above *)
  | None ->
      Alcotest.(check bool)
        "unset -> Ok None" true
        (D.env_domains_checked () = Ok None)

let env_garbage_warns_and_falls_back () =
  Alcotest.(check bool)
    "garbage ignored with usable fallback" true
    (in_child (fun () ->
         Unix.putenv D.env_var "garbage";
         D.set_default None;
         D.default_domains () >= 1))

let env_valid_value_is_used () =
  Alcotest.(check bool)
    "valid env value selects domain count" true
    (in_child (fun () ->
         Unix.putenv D.env_var "3";
         D.set_default None;
         D.default_domains () = 3))

let pool_merges_worker_telemetry () =
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  ignore
    (D.run ~domains:4 ~min_units_per_domain:1 ~units:100
       (fun ~worker:_ ~lo:_ ~len -> T.count "test.pool.units" len));
  let prof = T.snapshot () in
  T.set_enabled was;
  Alcotest.(check (option int))
    "counts from every domain merged" (Some 100)
    (T.find_counter prof "test.pool.units")

(* --- Prng.jump ----------------------------------------------------- *)

let jump_matches_sequential () =
  let a = P.create 99L in
  for _ = 1 to 1000 do
    ignore (P.next64 a)
  done;
  let b = P.create 99L in
  P.jump b 1000;
  Alcotest.(check int64) "1000-draw jump" (P.next64 a) (P.next64 b);
  let c = P.create 99L in
  P.jump c 0;
  let d = P.create 99L in
  Alcotest.(check int64) "0-draw jump" (P.next64 d) (P.next64 c)

(* The estimator's domains each fill their own blocks of words: two word
   ranges filled apart give the one generator's vectors too. *)
let stimulus_matches_sequential_fill () =
  List.iter
    (fun (inputs, patterns) ->
      let rng = P.create 42L in
      let expected =
        Array.init inputs (fun _ ->
            let v = B.create patterns in
            B.fill_random rng v;
            v)
      in
      let words = (patterns + 63) / 64 in
      let split input =
        let v = B.create patterns and half = words / 2 in
        Sim.fill_stimulus ~seed:42L ~words ~input ~lo:half ~len:(words - half) (B.words v)
          ~at:half;
        Sim.fill_stimulus ~seed:42L ~words ~input ~lo:0 ~len:half (B.words v) ~at:0;
        B.clamp v;
        v
      in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) (Printf.sprintf "input %d" i) true (B.equal expected.(i) v);
          Alcotest.(check bool)
            (Printf.sprintf "input %d, two ranges" i)
            true
            (B.equal expected.(i) (split i)))
        (Sim.random_stimulus ~seed:42L ~inputs ~patterns ()))
    [ (1, 64); (3, 1000); (5, 20000) ]

(* --- bit-exact parallel estimation --------------------------------- *)

let map_multiplier width lib =
  let nl = Circuits.Multiplier.generate ~width in
  Techmap.Mapper.map (Techmap.Matchlib.build lib) (Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl))

let mapped_mult8 = lazy (map_multiplier 8 Cell.Genlib.generalized_cntfet)

let estimate_report_identical_across_domains () =
  let mapped = map_multiplier 4 Cell.Genlib.generalized_cntfet in
  let r1 = Techmap.Estimate.run ~domains:1 ~patterns:70_000 ~seed:5L mapped in
  List.iter
    (fun domains ->
      let r = Techmap.Estimate.run ~domains ~patterns:70_000 ~seed:5L mapped in
      (* Float-for-float equality, not tolerance: the parallel sweep must
         produce the very same toggle counts and probabilities. *)
      Alcotest.(check (float 0.0)) "dynamic" r1.Techmap.Estimate.dynamic
        r.Techmap.Estimate.dynamic;
      Alcotest.(check (float 0.0)) "static" r1.Techmap.Estimate.static
        r.Techmap.Estimate.static;
      Alcotest.(check (float 0.0)) "total" r1.Techmap.Estimate.total
        r.Techmap.Estimate.total)
    [ 2; 4 ]

(* mult8 at 262 144 patterns (64 blocks) keeps both domains busy at
   once, so the span check below sees their blocks overlap. *)
let parallel_metadata_in_profile () =
  let mapped = Lazy.force mapped_mult8 in
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  ignore (Techmap.Estimate.run ~domains:2 ~patterns:262_144 mapped);
  let prof = T.snapshot () in
  T.set_enabled was;
  (match T.find_dist prof "estimate.domains" with
  | Some d -> Alcotest.(check bool) "domains observed" true (T.mean d >= 1.0)
  | None -> Alcotest.fail "estimate.domains not observed");
  let per_domain =
    List.filter
      (fun (name, _) ->
        String.length name > 10
        && String.sub name 0 10 = "estimate.d"
        && Filename.check_suffix name ".patterns_simulated")
      prof.T.p_counters
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 per_domain in
  Alcotest.(check int) "per-domain patterns sum to the sweep" 262_144 total;
  (* Spans on the calling domain nest in wall time: no node's children
     add up to more than its own total. The other domain's blocks run
     at the same time, so charging their phases too would break this. *)
  let rec nests path (s : T.span) =
    let path = path ^ "/" ^ s.T.span_name in
    let children = List.fold_left (fun acc (c : T.span) -> acc +. c.T.total_s) 0.0 s.T.children in
    if children > s.T.total_s +. 1e-9 then
      Alcotest.failf "%s: children %.6f s > its own %.6f s" path children s.T.total_s;
    List.iter (nests path) s.T.children
  in
  match prof.T.p_spans with
  | [ est ] when est.T.span_name = "techmap.estimate" ->
      let named name (s : T.span) = s.T.span_name = name in
      (match List.find_opt (named "estimate.sweep") est.T.children with
      | None -> Alcotest.fail "estimate.sweep missing under techmap.estimate"
      | Some sweep ->
          List.iter
            (fun phase ->
              if not (List.exists (named phase) sweep.T.children) then
                Alcotest.failf "%s missing under estimate.sweep" phase)
            [ "estimate.stimulus"; "estimate.simulate"; "estimate.toggles" ]);
      nests "" est
  | spans ->
      Alcotest.failf "spans outside techmap.estimate: %s"
        (String.concat ", " (List.map (fun (s : T.span) -> s.T.span_name) spans))

(* The whole-vector estimate from the public pieces it is defined by:
   the stimulus, [Mapped.simulate], the two counts per net and
   [static_components], in the estimator's formulas and net order. The
   streaming [Estimate.run] must equal it field for field (perfbench's
   fidelity check fails the benchmark otherwise). *)
let reference_estimate ~patterns ~seed (m : Techmap.Mapped.t) =
  let module M = Techmap.Mapped in
  let module E = Techmap.Estimate in
  let vdd = m.M.lib.Cell.Genlib.tech.Spice.Tech.vdd and f = Spice.Tech.frequency in
  let stimulus =
    Sim.random_stimulus ~seed ~inputs:(Array.length m.M.pi_nets) ~patterns ()
  in
  let values = M.simulate m stimulus in
  let toggle net =
    if patterns <= 1 then 0.0
    else float_of_int (B.transitions values.(net)) /. float_of_int (patterns - 1)
  in
  let prob net = float_of_int (B.popcount values.(net)) /. float_of_int patterns in
  let loads = M.net_loads m in
  let dynamic = ref 0.0 in
  for net = 0 to m.M.num_nets - 1 do
    dynamic := !dynamic +. (toggle net *. loads.(net) *. f *. vdd *. vdd)
  done;
  let static, gate_leak = E.static_components m ~probs:prob in
  let short_circuit = Spice.Tech.short_circuit_fraction *. !dynamic in
  let total = !dynamic +. short_circuit +. static +. gate_leak in
  let delay = M.delay m in
  {
    E.gates = M.num_gates m;
    area = M.area m;
    delay;
    dynamic = !dynamic;
    short_circuit;
    static;
    gate_leak;
    total;
    edp = Power.Powermodel.edp ~total_power:total ~delay ();
  }

(* Pattern counts on either side of a word (64) and of a block (4 096
   patterns), and 70 000, which splits over 4 domains. *)
let estimate_equals_whole_vector_reference () =
  List.iter
    (fun width ->
      List.iter
        (fun lib ->
          let m = map_multiplier width lib in
          List.iter
            (fun patterns ->
              let expected = reference_estimate ~patterns ~seed:5L m in
              List.iter
                (fun domains ->
                  let got = Techmap.Estimate.run ~domains ~patterns ~seed:5L m in
                  if got <> expected then
                    Alcotest.failf "mult%d/%s, %d patterns, %d domains: %a <> %a" width
                      lib.Cell.Genlib.name patterns domains Techmap.Estimate.pp_report got
                      Techmap.Estimate.pp_report expected)
                [ 1; 2; 4 ])
            [ 1; 2; 63; 64; 65; 4_095; 4_096; 4_097; 70_000 ])
        [ Cell.Genlib.generalized_cntfet; Cell.Genlib.cmos ])
    [ 4; 8 ]

(* --- allocation ---------------------------------------------------- *)

(* The kernels keep every word unboxed, so a sweep allocates the vectors
   it returns and little else: the rest is the per-call lowering of the
   gates' covers. A boxed word per store, or a word accessor that is a
   function rather than an external primitive, allocates at least three
   times as much. The circuit and pattern count are those of the
   simulate-mult8-64k micro-benchmark. *)
let mapped_simulate_allocates_only_its_vectors () =
  let mapped = Lazy.force mapped_mult8 in
  let stimulus =
    Sim.random_stimulus ~seed:3L
      ~inputs:(Array.length mapped.Techmap.Mapped.pi_nets) ~patterns:65_536 ()
  in
  (* Emptying the minor heap first makes the counters exact. *)
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let values = Techmap.Mapped.simulate mapped stimulus in
  let allocated = words () -. before in
  (* Storage words of the distinct vectors it returns, less its inputs. *)
  let returned =
    Array.fold_left
      (fun seen v ->
        if List.memq v seen || Array.memq v stimulus then seen else v :: seen)
      [] values
    |> List.fold_left (fun acc v -> acc + ((B.length v + 63) / 64)) 0
  in
  let ratio = allocated /. float_of_int returned in
  if ratio > 1.25 then
    Alcotest.failf "allocated %.0f words for %d words of vectors (%.2fx > 1.25x)"
      allocated returned ratio

(* The estimator keeps one block of words per net, whatever the pattern
   count, so ten times the patterns allocate no more of the major heap.
   One whole vector per net allocates 9.75 times as much, so a return to
   whole vectors fails here. *)
let estimate_heap_is_independent_of_patterns () =
  let mapped = Lazy.force mapped_mult8 in
  let major_words patterns =
    Gc.minor ();
    let _, _, before = Gc.counters () in
    ignore (Techmap.Estimate.run ~domains:1 ~patterns ~seed:3L mapped);
    Gc.minor ();
    let _, _, after = Gc.counters () in
    after -. before
  in
  let small = major_words 65_536 in
  let large = major_words 655_360 in
  if large > 1.1 *. small then
    Alcotest.failf "major heap: %.0f words at 655 360 patterns, %.0f at 65 536 (%.2fx > 1.1x)"
      large small (large /. small)

let () =
  Alcotest.run "parallel"
    [
      ( "dpool",
        [
          (* env tests first: they fork, which is illegal after the pool
             tests below have spawned domains. *)
          tc "env validation matches --domains" `Quick env_domains_validation;
          tc "env unset reports none" `Quick env_domains_unset_is_none;
          tc "env garbage warns and falls back" `Quick
            env_garbage_warns_and_falls_back;
          tc "env valid value is used" `Quick env_valid_value_is_used;
          tc "covers all units exactly once" `Quick pool_covers_all_units;
          tc "small work stays sequential" `Quick pool_small_work_is_sequential;
          tc "chunks smaller than the minimum share" `Quick pool_chunks_below_min_share;
          tc "exception propagates" `Quick pool_propagates_exception;
          tc "default resolution" `Quick pool_default_respects_env;
          tc "worker telemetry merged" `Quick pool_merges_worker_telemetry;
        ] );
      ( "prng",
        [
          tc "jump = n sequential draws" `Quick jump_matches_sequential;
          tc "parallel stimulus = sequential fill" `Quick
            stimulus_matches_sequential_fill;
        ] );
      ( "determinism",
        [
          tc "Estimate.run reports identical floats" `Slow
            estimate_report_identical_across_domains;
          tc "parallel metadata lands in the profile" `Slow
            parallel_metadata_in_profile;
          tc "Estimate.run = whole-vector reference" `Slow
            estimate_equals_whole_vector_reference;
        ] );
      ( "allocation",
        [
          tc "Mapped.simulate allocates only its vectors" `Quick
            mapped_simulate_allocates_only_its_vectors;
          tc "Estimate.run heap independent of patterns" `Quick
            estimate_heap_is_independent_of_patterns;
        ] );
    ]
