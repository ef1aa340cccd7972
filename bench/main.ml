(* Benchmark harness.

   Running `dune exec bench/main.exe` regenerates every table and
   figure-grade claim of the paper (experiments E1-E8 of DESIGN.md) plus
   the A2-A5 ablations and bechamel microbenchmarks of the computational
   kernels. Pass section names to run a subset:

     dune exec bench/main.exe -- micro table1
     dune exec bench/main.exe -- quick table1   # E1 with fewer patterns
     dune exec bench/main.exe -- domains=4 profile

   One Bechamel test per paper table/figure measures the kernel that
   produces it. *)

let std = Format.std_formatter

let quick = ref false

let patterns () = if !quick then 65536 else Techmap.Estimate.default_patterns

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                 *)

let run_libchar () =
  Format.printf "@.#### E2/E4/E5/E6 — library characterization ####@.";
  Experiments.Exp_libchar.print std (Experiments.Exp_libchar.run ())

let run_patterns () =
  Format.printf "@.#### E3/E8/A1 — I_off pattern classification ####@.";
  Experiments.Exp_patterns.print std (Experiments.Exp_patterns.run ())

let run_tgate () =
  Format.printf "@.#### E7 — transmission gate (Fig. 2) ####@.";
  Experiments.Exp_tgate.print std (Experiments.Exp_tgate.run ())

let run_delay () =
  Format.printf "@.#### E9 — intrinsic delay (transient analysis) ####@.";
  Experiments.Exp_delay.print std (Experiments.Exp_delay.run ())

let run_dynamic () =
  Format.printf "@.#### E10 — dynamic / reconfigurable cells (extension) ####@.";
  Experiments.Exp_dynamic.print std (Experiments.Exp_dynamic.run ())

let run_seq () =
  Format.printf "@.#### E12 — clocked CRC engine (extension) ####@.";
  Experiments.Exp_seq.print std (Experiments.Exp_seq.run ())

let run_pla () =
  Format.printf "@.#### E11 — ambipolar PLAs (extension) ####@.";
  Experiments.Exp_pla.print std (Experiments.Exp_pla.run ())

let run_sensitivity () =
  Format.printf "@.#### E13-E15 — operating point & variation sensitivity (extension) ####@.";
  Experiments.Exp_sensitivity.print std (Experiments.Exp_sensitivity.run ())

let run_table1 () =
  Format.printf "@.#### E1 — Table 1 (%d random patterns) ####@." (patterns ());
  Experiments.Exp_table1.print std (Experiments.Exp_table1.run ~patterns:(patterns ()) ())

let run_ablations () =
  Format.printf "@.#### A2-A5 — ablations ####@.";
  Experiments.Ablations.print std ()

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
  let simulate =
    let nl = Circuits.Multiplier.generate ~width:8 in
    let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
    let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
    let mapped = Techmap.Mapper.map ml aig in
    Test.make ~name:"estimate-mult8-64k"
      (Staged.stage (fun () -> ignore (Techmap.Estimate.run ~patterns:65536 mapped)))
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
  let sim_seq_vs_par =
    (* Sequential vs. domain-parallel sweep over the same mapped netlist
       and stimulus: the pair pins the parallel speedup (and on a 1-core
       host, the sharding overhead) of the bit-sliced kernel. *)
    let nl = Circuits.Multiplier.generate ~width:8 in
    let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
    let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
    let mapped = Techmap.Mapper.map ml aig in
    let stimulus =
      Nets.Sim.random_stimulus ~domains:1
        ~inputs:(Array.length mapped.Techmap.Mapped.pi_nets) ~patterns:65536 ()
    in
    [
      Test.make ~name:"simulate-mult8-64k-seq"
        (Staged.stage (fun () ->
             ignore (Techmap.Mapped.simulate ~domains:1 mapped stimulus)));
      Test.make ~name:"simulate-mult8-64k-par"
        (Staged.stage (fun () ->
             ignore (Techmap.Mapped.simulate mapped stimulus)));
    ]
  in
  let supervise =
    (* Cost of the process-isolation layer itself: fork a worker, marshal
       a typical scalar payload back, reap the exit. Bounds the overhead
       `cntpower all` and `campaign` pay per shard for crash/timeout
       safety. It leads the list because OCaml 5 refuses to fork once a
       domain has been spawned, and the parallel micros spawn them; after
       an earlier parallel section the fork is refused and the micro is
       skipped. *)
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
  let metrics_snapshot =
    (* What a long-lived daemon pays to answer the `metrics` verb inline
       (and the campaign coordinator per completion): caller gauges with
       the registry's counters and distributions, after 10 000 requests
       have each left a `serve.request/req-<n>` subtree. The subtrees are
       grafted only for this micro and dropped after it, so no other
       micro runs beside them; collection is on only for the snapshot. *)
    let module T = Runtime.Telemetry in
    let gauges =
      List.init 8 (fun i -> (Printf.sprintf "gauge%d" i, float_of_int i))
    in
    let graft () =
      T.set_enabled true;
      T.reset ();
      T.with_span "estimate" (fun () ->
          T.with_span "estimate.simulate" (fun () -> T.count "sim.words" 64);
          T.observe "sim.patterns_per_s" 1e6);
      let request = T.snapshot () in
      T.reset ();
      List.iter
        (fun name -> T.count ("serve." ^ name) 0)
        [ "served"; "failed"; "shed"; "rejected" ];
      T.set_enabled false;
      for n = 1 to 10_000 do
        T.merge ~prefix:[ "serve.request"; Printf.sprintf "req-%d" n ] request
      done
    in
    let started = Unix.gettimeofday () in
    Test.make_with_resource ~name:"metrics-snapshot" Test.uniq ~allocate:graft
      ~free:T.reset
      (Staged.stage (fun () ->
           T.set_enabled true;
           ignore (Runtime.Metrics.make ~source:"bench" ~started ~gauges ());
           T.set_enabled false))
  in
  supervise
  @ [ classify; dc_solve; resyn; mapping; simulate ]
  @ matchlib_per_family @ sim_seq_vs_par
  @ [ telemetry_disabled; metrics_snapshot ]

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
(* serve round-trip: request latency against a live daemon             *)

let serve_blif =
  ".model benchround\n\
   .inputs a b c d\n\
   .outputs y z\n\
   .names a b t\n\
   11 1\n\
   .names c d u\n\
   00 1\n\
   .names t u y\n\
   10 1\n\
   .names t u z\n\
   01 1\n\
   .end\n"

let run_serve_roundtrip () =
  let module Sv = Runtime.Server in
  let module Ck = Runtime.Checkpoint in
  let module T = Runtime.Telemetry in
  let n = 50 in
  Format.printf "@.#### serve round-trip (%d requests) ####@." n;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cntb-%d.sock" (Unix.getpid ()))
  in
  flush stdout;
  flush stderr;
  (* The daemon is a forked child; OCaml 5 refuses to fork once any
     domain has ever been spawned, which is why this section leads the
     default order — every estimate section spawns pool domains. *)
  match
    try Some (Unix.fork ()) with Unix.Unix_error _ | Failure _ -> None
  with
  | None ->
      Format.printf
        "  skipped: cannot fork after parallel sections (run serve-roundtrip \
         first)@."
  | Some 0 ->
      Runtime.Journal.set_verbosity None;
      let handlers =
        {
          Sv.admit =
            (fun req -> Result.bind (Ck.str_field req "blif") Nets.Blif.parse_string);
          execute =
            (fun nl ->
              let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
              Result.map
                (fun flow ->
                  let _, r = List.hd flow.Techmap.Flow.results in
                  Ck.Obj [ ("total_W", Ck.Num r.Techmap.Estimate.total) ])
                (Techmap.Flow.run ~domains:1 ~patterns:4096 ~name:"request" [ ml ] (fun () -> nl)));
          describe = (fun _ -> [ ("bench", "roundtrip") ]);
        }
      in
      let cfg =
        { (Sv.default_config ~socket_path:sock) with Sv.max_workers = 2 }
      in
      let code =
        match Sv.run cfg handlers with
        | Ok Sv.Drained -> 0
        | Ok Sv.Tripped -> 3
        | Error _ -> 4
      in
      Unix._exit code
  | Some pid ->
      let health = Ck.Obj [ ("verb", Ck.Str "health") ] in
      let rec wait_ready tries =
        tries > 0
        &&
        match Sv.call ~socket_path:sock ~timeout_s:2.0 health with
        | Ok _ -> true
        | Error _ ->
            Unix.sleepf 0.1;
            wait_ready (tries - 1)
      in
      if not (wait_ready 100) then
        Format.printf "  daemon never became ready@."
      else begin
        let req =
          Ck.Obj [ ("verb", Ck.Str "estimate"); ("blif", Ck.Str serve_blif) ]
        in
        (* Two throwaway calls, so that the measured requests do not
           include the daemon's first fork. *)
        for _ = 1 to 2 do
          ignore (Sv.call ~socket_path:sock req)
        done;
        let was = T.enabled () in
        T.set_enabled true;
        let failures = ref 0 in
        for _ = 1 to n do
          let t0 = Unix.gettimeofday () in
          match Sv.call ~socket_path:sock req with
          | Ok resp when Sv.response_error resp = None ->
              T.observe "serve.roundtrip_s" (Unix.gettimeofday () -. t0)
          | Ok _ | Error _ -> incr failures
        done;
        let prof = T.snapshot () in
        T.set_enabled was;
        (match T.find_dist prof "serve.roundtrip_s" with
        | Some d ->
            Format.printf "  requests %d  failures %d@." n !failures;
            Format.printf "  p50 %8.3f ms   p95 %8.3f ms   mean %8.3f ms@."
              (1e3 *. T.percentile d 0.50)
              (1e3 *. T.percentile d 0.95)
              (1e3 *. T.mean d)
        | None -> Format.printf "  no samples (all %d requests failed)@." n);
        let path = "BENCH_serve.json" in
        match T.save ~path prof with
        | Ok () -> Format.printf "wrote %s@." path
        | Error e ->
            Format.eprintf "cannot write %s: %a@." path Runtime.Cnt_error.pp e
      end;
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Format.printf "  daemon drained clean@."
      | _, _ -> Format.printf "  daemon exited abnormally@.")

(* ------------------------------------------------------------------ *)

(* Data-file families ride along in every per-family section when the
   committed libraries are present (bench runs from the repo root). *)
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
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter
      (fun a ->
        if a = "quick" then begin
          quick := true;
          false
        end
        else if String.length a > 8 && String.sub a 0 8 = "domains=" then begin
          (match int_of_string_opt (String.sub a 8 (String.length a - 8)) with
          | Some d when d >= 1 && d <= Runtime.Dpool.max_domains ->
              Runtime.Dpool.set_default (Some d)
          | _ ->
              Format.printf "ignoring bad domains=%s (want 1..%d)@."
                (String.sub a 8 (String.length a - 8))
                Runtime.Dpool.max_domains);
          false
        end
        else true)
      args
  in
  let sections =
    [
      (* must lead: forks a daemon, illegal once pool domains have run *)
      ("serve-roundtrip", run_serve_roundtrip);
      (* next, for the same reason: its fork micro leads it *)
      ("micro", run_micro);
      ("libchar", run_libchar);
      ("patterns", run_patterns);
      ("tgate", run_tgate);
      ("delay", run_delay);
      ("dynamic", run_dynamic);
      ("pla", run_pla);
      ("seq", run_seq);
      ("sensitivity", run_sensitivity);
      ("table1", run_table1);
      ("ablations", run_ablations);
      ("profile", run_profile);
    ]
  in
  let selected = if args = [] then List.map fst sections else args in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.printf "unknown section %s (have: %s)@." name
            (String.concat ", " (List.map fst sections)))
    selected
