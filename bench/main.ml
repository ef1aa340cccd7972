(* Benchmark harness: what no `cntpower` command does.

     dune exec bench/main.exe            # both sections
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks
     dune exec bench/main.exe -- profile # writes BENCH_profile.json

   `micro` times the computational kernels behind the paper's tables,
   one bechamel test each. `profile` runs a representative synth -> map
   -> estimate workload with telemetry on, the snapshot CI compares
   against the committed BENCH_profile.json. The experiments themselves
   run with `cntpower <experiment>` or `cntpower all`. *)

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

open Bechamel
open Toolkit

let micro_tests () =
  let nor3 = Cell.Cells.find "NOR3" in
  let classify =
    Test.make ~name:"pattern-classify-NOR3"
      (Staged.stage (fun () -> ignore (Power.Pattern.analyze nor3.Cell.Cells.ambipolar ~pins:3)))
  in
  let dc_solve =
    Test.make ~name:"dc-solve-stack3"
      (Staged.stage (fun () ->
           Power.Leakage.clear_cache ();
           ignore
             (Power.Leakage.pattern_ioff Spice.Tech.cmos
                (Power.Pattern.Series
                   [ Power.Pattern.Unit 1; Power.Pattern.Unit 1; Power.Pattern.Unit 1 ]))))
  in
  let resyn =
    let nl = Circuits.Multiplier.generate ~width:4 in
    let aig = Aigs.Aig.of_netlist nl in
    Test.make ~name:"resyn2rs-mult4" (Staged.stage (fun () -> ignore (Aigs.Opt.resyn2rs aig)))
  in
  let mapping =
    let nl = Circuits.Multiplier.generate ~width:4 in
    let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
    let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
    Test.make ~name:"map-mult4" (Staged.stage (fun () -> ignore (Techmap.Mapper.map ml aig)))
  in
  let mult8 =
    let nl = Circuits.Multiplier.generate ~width:8 in
    let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
    Techmap.Mapper.map (Techmap.Matchlib.build Cell.Genlib.generalized_cntfet) aig
  in
  let estimate =
    Test.make ~name:"estimate-mult8-64k"
      (Staged.stage (fun () -> ignore (Techmap.Estimate.run ~patterns:65536 mult8)))
  in
  let simulate =
    (* The whole-vector kernel behind verification. *)
    let stimulus =
      Nets.Sim.random_stimulus ~inputs:(Array.length mult8.Techmap.Mapped.pi_nets)
        ~patterns:65536 ()
    in
    Test.make ~name:"simulate-mult8-64k"
      (Staged.stage (fun () -> ignore (Techmap.Mapped.simulate mult8 stimulus)))
  in
  let matchlib_per_family =
    (* The real table construction per logic family: built-ins plus any
       registered data file (the PTL family when run from the repo root). *)
    List.map
      (fun lib ->
        Test.make
          ~name:(Printf.sprintf "matchlib-build-%s" lib.Cell.Genlib.name)
          (Staged.stage (fun () -> ignore (Techmap.Matchlib.build lib))))
      (Cell.Genlib.libraries ())
  in
  let supervise =
    (* Cost of the process-isolation layer itself: fork a worker, marshal
       a typical scalar payload back, reap the exit. Bounds the overhead
       `cntpower all` and `campaign` pay per shard for crash/timeout
       safety. It leads the list because OCaml 5 refuses to fork once a
       domain has been spawned, and the estimate micro spawns them on a
       multi-core host; after an earlier parallel section the fork is
       refused and the micro is skipped. *)
    let payload = List.init 16 (fun i -> (Printf.sprintf "m%d" i, float_of_int i)) in
    let fork () =
      let job =
        Runtime.Supervisor.spawn ~timeout_s:30.0 ~name:"bench" (fun () -> payload)
      in
      let rec await () =
        match Runtime.Supervisor.wait [ job ] with
        | _, [ (_, result) ] -> result
        | _ -> await ()
      in
      await ()
    in
    match fork () with
    | Ok _ ->
        [
          Test.make ~name:"supervisor-fork-roundtrip"
            (Staged.stage (fun () -> ignore (fork ())));
        ]
    | Error e ->
        Format.printf "  %-28s skipped (%s)@." "supervisor-fork-roundtrip"
          e.Runtime.Cnt_error.message;
        []
  in
  let telemetry_disabled =
    (* The instrumentation ships in release paths guarded by one flag;
       this pins the disabled cost of a span + counter + observation to
       nanoseconds so `cntpower all` without --profile stays free. *)
    Test.make ~name:"telemetry-span-disabled"
      (Staged.stage (fun () ->
           Runtime.Telemetry.with_span "bench.span" (fun () ->
               Runtime.Telemetry.count "bench.counter" 1;
               Runtime.Telemetry.observe "bench.dist" 1.0)))
  in
  supervise
  @ [ classify; dc_solve; resyn; mapping; estimate; simulate ]
  @ matchlib_per_family
  @ [ telemetry_disabled ]

let run_micro () =
  Format.printf "@.#### Microbenchmarks (bechamel) ####@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results =
        Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances test)
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (ns :: _) ->
              if ns > 1e6 then Format.printf "  %-28s %10.2f ms/run@." name (ns /. 1e6)
              else Format.printf "  %-28s %10.1f ns/run@." name ns
          | Some [] | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    (micro_tests ())

(* ------------------------------------------------------------------ *)
(* Profiled representative workload: BENCH_profile.json                *)

let run_profile () =
  Format.printf
    "@.#### Telemetry profile (synth -> map -> estimate, mult8) ####@.";
  let module T = Runtime.Telemetry in
  T.set_enabled true;
  T.reset ();
  (* Per-family match-table construction, so the committed profile
     tracks what each family (e.g. the PTL data file) costs to bring up. *)
  T.with_span "bench.matchlib_families" (fun () ->
      List.iter
        (fun lib ->
          T.with_span lib.Cell.Genlib.name (fun () ->
              ignore (Techmap.Matchlib.build lib)))
        (Cell.Genlib.libraries ()));
  T.with_span "bench.pipeline" (fun () ->
      let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
      let mult8 () = Circuits.Multiplier.generate ~width:8 in
      ignore (Runtime.Cnt_error.get_exn (Techmap.Flow.run ~patterns:65536 ~name:"mult8" [ ml ] mult8)));
  let prof = T.snapshot () in
  T.set_enabled false;
  let path = "BENCH_profile.json" in
  (match T.save ~path prof with
  | Ok () -> Format.printf "wrote %s@." path
  | Error e -> Format.eprintf "cannot write %s: %a@." path Runtime.Cnt_error.pp e);
  T.pp std prof

(* ------------------------------------------------------------------ *)

(* Data-file families ride along in the per-family micros and profile
   spans when the committed libraries are present (bench runs from the
   repo root). *)
let load_data_libraries () =
  let dir = Filename.concat "data" "libraries" in
  let builtin name =
    List.exists
      (fun (l : Cell.Genlib.t) -> l.Cell.Genlib.name = name)
      Cell.Genlib.all_libraries
  in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f Cell.Libfile.extension then
          let path = Filename.concat dir f in
          if not (builtin (Filename.chop_suffix f Cell.Libfile.extension)) then
            match Cell.Libfile.load path with
            | Ok (lib, _) ->
                Format.printf "loaded %s (%s)@." path lib.Cell.Genlib.name
            | Error e ->
                Format.eprintf "cannot load %s: %a@." path Runtime.Cnt_error.pp e)
      (Sys.readdir dir)

let () =
  load_data_libraries ();
  let sections =
    [
      (* must lead: its fork micro is refused once a domain has run *)
      ("micro", run_micro);
      ("profile", run_profile);
    ]
  in
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.printf "unknown section %s (have: %s)@." name
            (String.concat ", " (List.map fst sections)))
    selected
