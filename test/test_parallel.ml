(* Domain-parallel simulation: the pool's work-sharing contract, the
   PRNG jump that splits the stimulus stream, and — the property the
   whole tentpole rests on — bit-identical simulation results for any
   domain count, on both the netlist and the mapped-cell kernels. *)

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
      List.iter
        (fun domains ->
          let got =
            Sim.random_stimulus ~domains ~seed:42L ~inputs ~patterns ()
          in
          Array.iteri
            (fun i v ->
              Alcotest.(check bool)
                (Printf.sprintf "input %d, %d domains" i domains)
                true (B.equal expected.(i) v))
            got)
        [ 1; 2; 4 ])
    [ (1, 64); (3, 1000); (5, 20000) ]

(* --- bit-exact parallel simulation --------------------------------- *)

let mult8 = lazy (Circuits.Multiplier.generate ~width:8)

let run_random_deterministic_across_domains () =
  let nl = Lazy.force mult8 in
  let reference = Sim.run_random ~domains:1 ~seed:7L nl 50_000 in
  List.iter
    (fun domains ->
      let r = Sim.run_random ~domains ~seed:7L nl 50_000 in
      Alcotest.(check int) "patterns" reference.Sim.num_patterns r.Sim.num_patterns;
      Array.iteri
        (fun id v ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d, %d domains" id domains)
            true
            (B.equal reference.Sim.node_values.(id) v))
        r.Sim.node_values)
    [ 2; 4 ]

let mapped_mult4 =
  lazy
    (let nl = Circuits.Multiplier.generate ~width:4 in
     let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
     let ml = Techmap.Matchlib.build ~cache:false Cell.Genlib.generalized_cntfet in
     (nl, Techmap.Mapper.map ml aig))

let mapped_simulate_deterministic_across_domains () =
  let _, mapped = Lazy.force mapped_mult4 in
  (* 70 K patterns = ~1100 words: enough for the pool to actually split
     across 4 domains (256-word minimum share). *)
  let stimulus =
    Sim.random_stimulus ~domains:1 ~seed:11L
      ~inputs:(Array.length mapped.Techmap.Mapped.pi_nets) ~patterns:70_000 ()
  in
  let reference = Techmap.Mapped.simulate ~domains:1 mapped stimulus in
  List.iter
    (fun domains ->
      let values = Techmap.Mapped.simulate ~domains mapped stimulus in
      Array.iteri
        (fun net v ->
          Alcotest.(check bool)
            (Printf.sprintf "net %d, %d domains" net domains)
            true
            (B.equal reference.(net) v))
        values)
    [ 2; 4 ]

let mapped_check_deterministic_across_domains () =
  let nl, mapped = Lazy.force mapped_mult4 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "verified with %d domains" domains)
        true
        (Techmap.Mapped.check ~domains mapped nl ~patterns:2048 ~seed:4L))
    [ 1; 2; 4 ]

let estimate_report_identical_across_domains () =
  let _, mapped = Lazy.force mapped_mult4 in
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

let parallel_metadata_in_profile () =
  let _, mapped = Lazy.force mapped_mult4 in
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  ignore (Techmap.Estimate.run ~domains:2 ~patterns:30_000 mapped);
  let prof = T.snapshot () in
  T.set_enabled was;
  (match T.find_dist prof "sim.domains" with
  | Some d -> Alcotest.(check bool) "domains observed" true (T.mean d >= 1.0)
  | None -> Alcotest.fail "sim.domains not observed");
  let per_domain =
    List.filter
      (fun (name, _) ->
        String.length name > 4
        && String.sub name 0 4 = "sim."
        && Filename.check_suffix name ".patterns_simulated")
      prof.T.p_counters
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 per_domain in
  Alcotest.(check int) "per-domain patterns sum to the sweep" 30_000 total

(* --- allocation ---------------------------------------------------- *)

(* The kernels keep every word unboxed, so a sweep allocates the vectors
   it returns and little else: the rest is the per-call lowering of the
   gates' covers. A boxed word per store, or a word accessor that is a
   function rather than an external primitive, allocates at least three
   times as much. The circuit and pattern count are those of the
   simulate-mult8-64k micro-benchmarks. *)
let mapped_simulate_allocates_only_its_vectors () =
  let mapped =
    let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist (Lazy.force mult8)) in
    let ml = Techmap.Matchlib.build ~cache:false Cell.Genlib.generalized_cntfet in
    Techmap.Mapper.map ml aig
  in
  let stimulus =
    Sim.random_stimulus ~domains:1 ~seed:3L
      ~inputs:(Array.length mapped.Techmap.Mapped.pi_nets) ~patterns:65_536 ()
  in
  (* Emptying the minor heap first makes the counters exact. *)
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let values = Techmap.Mapped.simulate ~domains:1 mapped stimulus in
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
          tc "run_random bit-exact for 1/2/4 domains" `Slow
            run_random_deterministic_across_domains;
          tc "Mapped.simulate bit-exact for 1/2/4 domains" `Slow
            mapped_simulate_deterministic_across_domains;
          tc "Mapped.check stable across domains" `Slow
            mapped_check_deterministic_across_domains;
          tc "Estimate.run reports identical floats" `Slow
            estimate_report_identical_across_domains;
          tc "parallel metadata lands in the profile" `Slow
            parallel_metadata_in_profile;
        ] );
      ( "allocation",
        [
          tc "Mapped.simulate allocates only its vectors" `Quick
            mapped_simulate_allocates_only_its_vectors;
        ] );
    ]
