(* cntpower — command-line driver for the ambipolar-CNTFET power study.

   One table of experiments (table1, libchar, patterns, tgate, delay,
   dynamic, pla, seq, sensitivity, ablations) makes both a subcommand per
   experiment and the shards of `all`, which reproduces every table and
   headline figure as one supervised run (Experiments.Campaign: forked
   workers, watchdog timeouts, a crash-safe queue log and resume), the
   runner `campaign` sweeps Table 1 on. Beside them: synth, genlib,
   check, golden, the run tools and the `serve` daemon.

   Exit codes (documented in README.md): 0 success; 10 `all --keep-going`
   completed with failures; 11 `all --strict` stopped at the first failure;
   12-30 a typed Cnt_error escaped a single-experiment command (one code
   per error class, see Runtime.Cnt_error.exit_code — 25 worker timeout,
   26 worker killed, also `serve` after a breaker trip; 29 a request shed
   by an overloaded `serve` daemon; 30 a `campaign` that completed with
   quarantined shards); 124/125 cmdliner errors. *)

let std = Format.std_formatter

module R = Runtime.Cnt_error
module C = Runtime.Checkpoint
module S = Runtime.Supervisor
module T = Runtime.Telemetry
module Jn = Runtime.Journal
module Tr = Runtime.Trace_export
module Cp = Runtime.Compare
module F = Techmap.Flow

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Argument validation: a nonpositive pattern count must die here as a
   typed usage error, not deep inside Logic.Bitvec.create. *)

let validate_patterns p =
  if p < 1 then
    R.failf
      ~context:[ ("patterns", string_of_int p) ]
      R.Cli R.Validation_error "--patterns must be >= 1 (got %d)" p;
  if p > 100_000_000 then
    R.failf
      ~context:[ ("patterns", string_of_int p) ]
      R.Cli R.Validation_error
      "--patterns %d is beyond the supported budget (max 100000000)" p

let validate_seed s =
  if Int64.compare s 0L < 0 then
    R.failf
      ~context:[ ("seed", Int64.to_string s) ]
      R.Cli R.Validation_error "--seed must be >= 0 (got %Ld)" s

(* --timeout and --retries go through the same typed usage-error path.
   NaN is the nasty case: it slips past simple [< 0.0] comparisons and
   would poison the watchdog deadline arithmetic downstream. *)
let validate_timeout t =
  if not (Float.is_finite t) || t < 0.0 then
    R.failf
      ~context:[ ("timeout", Printf.sprintf "%h" t) ]
      R.Cli R.Validation_error
      "--timeout must be a finite number of seconds >= 0 (got %g)" t

(* An integer flag outside [lo, hi] is a typed usage error. *)
let validate_range flag ~lo ~hi v =
  if v < lo || v > hi then
    R.failf
      ~context:[ (flag, string_of_int v) ]
      R.Cli R.Validation_error "--%s must be in [%d, %d] (got %d)" flag lo hi v

let validate_domains =
  Option.iter (validate_range "domains" ~lo:1 ~hi:Runtime.Dpool.max_domains)

(* Shared by the pipeline commands: pin the simulation domain count.
   Results are bit-identical for any domain count; --domains only moves
   wall clock. *)
let apply_runtime_opts ~domains =
  validate_domains domains;
  (* CNTPOWER_DOMAINS gets the same scrutiny as --domains: when the
     environment would actually be consulted (no explicit --domains),
     garbage is a typed usage error, not a silent fallback to
     autodetection. *)
  (match (domains, Runtime.Dpool.env_domains_checked ()) with
  | None, Result.Error msg ->
      R.failf
        ~context:
          [
            ( "CNTPOWER_DOMAINS",
              Option.value ~default:"" (Sys.getenv_opt "CNTPOWER_DOMAINS") );
          ]
        R.Cli R.Validation_error "%s" msg
  | _ -> ());
  Runtime.Dpool.set_default domains

let domains_arg =
  let doc =
    "Worker domains (cores) for the estimator's pattern sweep; default: \
     the runtime's recommended count (or $(b,CNTPOWER_DOMAINS)). Results \
     are bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let find_circuit name =
  match
    List.find_opt (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name = name)
      Circuits.Suite.all
  with
  | Some e -> e
  | None ->
      R.failf
        ~context:
          [
            ( "known",
              String.concat ","
                (List.map
                   (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name)
                   Circuits.Suite.all) );
          ]
        R.Cli R.Validation_error "unknown circuit %S" name

(* The "known" context must list the *resolution view* — built-ins plus
   registered data files — or the error would deny libraries that are in
   fact loadable. *)
let find_library name =
  match Cell.Genlib.find_library name with
  | Some l -> l
  | None ->
      R.failf
        ~context:[ ("known", String.concat "," (Cell.Genlib.library_names ())) ]
        R.Cli R.Validation_error "unknown library %S" name

(* Logic-family files: the CNTPOWER_LIBPATH search path loads first, then
   the explicit --library-file arguments (so an explicit file wins a name
   collision). Any broken file is fatal here with its typed line-numbered
   error; shadowing warnings go to stderr and the run continues. *)
let load_library_files files =
  let load_one path =
    match Cell.Libfile.load path with
    | Ok (_, warnings) ->
        List.iter (fun w -> Format.eprintf "cntpower: %s: %s@." path w) warnings
    | Result.Error e -> R.raise_error e
  in
  List.iter load_one (Cell.Libfile.discover ());
  List.iter load_one files

let library_file_arg =
  let doc =
    "Load a logic-family file (genlib-plus, see README \"Defining a logic \
     family\") and register it under its LIBRARY name next to the \
     built-ins for this invocation (repeatable). Files found on the \
     colon-separated $(b,CNTPOWER_LIBPATH) directories are loaded first."
  in
  Arg.(value & opt_all string [] & info [ "library-file" ] ~docv:"FILE" ~doc)

let patterns_arg =
  let doc = "Number of random simulation patterns for power estimation (>= 1)." in
  Arg.(value & opt int Techmap.Estimate.default_patterns & info [ "p"; "patterns" ] ~doc)

let seed_arg =
  let doc = "PRNG seed for power-estimation patterns (>= 0)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc)

let circuit_arg =
  let doc = "Benchmark circuit name (Table 1 row), e.g. C6288." in
  Arg.(value & opt string "C6288" & info [ "c"; "circuit" ] ~doc)

(* ------------------------------------------------------------------ *)
(* The experiments. Each entry makes both its subcommand and its shard
   of `all`, so the two run one workload.                               *)

type experiment = {
  name : string;  (* the subcommand, and the shard id under `all` *)
  doc : string;
  workload : int;
      (* what it runs: cycles, samples or patterns, 0 for the experiments
         with nothing to shed; with the seed, its resume key under `all` *)
  run : degraded:bool -> (string * float) list;
      (* prints the report and returns the manifest scalars *)
}

(* A degraded retry (see `all --retries`) runs half the workload. *)
let shed ~degraded n = if degraded then max 1 (n / 2) else n

let experiment name doc workload run print scalars =
  let run ~degraded =
    let r = run (shed ~degraded workload) in
    print std r;
    scalars r
  in
  { name; doc; workload; run }

(* The table, in `all`'s order; [patterns], [seed] and [circuits] are
   Table 1's. *)
let experiments ~patterns ~seed ~circuits =
  let module X = Experiments in
  let fixed run _ = run () in
  [
    experiment "libchar" "Library characterization (E2, E4-E6)" 0
      (fixed X.Exp_libchar.run) X.Exp_libchar.print X.Exp_libchar.scalars;
    experiment "patterns" "I_off pattern census (E3, E8, A1)" 0
      (fixed X.Exp_patterns.run) X.Exp_patterns.print X.Exp_patterns.scalars;
    experiment "tgate" "Transmission-gate transfer study (E7, Fig. 2)" 0
      (fixed X.Exp_tgate.run) X.Exp_tgate.print X.Exp_tgate.scalars;
    experiment "delay" "Intrinsic inverter delays by transient analysis (E9)" 0
      (fixed X.Exp_delay.run) X.Exp_delay.print X.Exp_delay.scalars;
    experiment "dynamic" "Dynamic / reconfigurable ambipolar cells (E10, extension)" 0
      (fixed X.Exp_dynamic.run) X.Exp_dynamic.print X.Exp_dynamic.scalars;
    experiment "pla" "In-field programmable ambipolar PLA (E11, extension)" 0
      (fixed X.Exp_pla.run) X.Exp_pla.print X.Exp_pla.scalars;
    experiment "seq" "Clocked CRC engine with registers and clock tree (E12, extension)"
      10_000
      (fun cycles -> X.Exp_seq.run ~cycles ())
      X.Exp_seq.print X.Exp_seq.scalars;
    experiment "sensitivity"
      "Supply/temperature/variation sensitivity (E13-E15, extension)" 2_000
      (fun mc_samples -> X.Exp_sensitivity.run ~mc_samples ())
      X.Exp_sensitivity.print X.Exp_sensitivity.scalars;
    experiment "table1" "Table 1 reproduction: synthesis, mapping, power and EDP (E1)"
      patterns
      (fun patterns -> X.Exp_table1.run ~patterns ~seed ~circuits ())
      X.Exp_table1.print X.Exp_table1.scalars;
    experiment "ablations" "A2-A6 ablations (C6288 mapping, C1355 wire load)" 0 ignore
      X.Ablations.print (fun () -> []);
  ]

let table1 table = List.find (fun e -> e.name = "table1") table

let default_experiments =
  experiments ~patterns:Techmap.Estimate.default_patterns ~seed:42L
    ~circuits:Circuits.Suite.all

(* Every command evaluates to an exit code, so `all` can report partial
   failure apart from success. The experiments other than Table 1 take
   no options. *)
let experiment_cmds =
  List.filter_map
    (fun e ->
      if e.name = "table1" then None
      else
        Some
          (Cmd.v (Cmd.info e.name ~doc:e.doc)
             Term.(const (fun () -> ignore (e.run ~degraded:false); 0) $ const ())))
    default_experiments

let table1_cmd =
  let only =
    let doc = "Restrict to the given circuits (repeatable)." in
    Arg.(value & opt_all string [] & info [ "only" ] ~doc)
  in
  let run libfiles patterns seed only =
    validate_patterns patterns;
    validate_seed seed;
    load_library_files libfiles;
    let circuits =
      match only with [] -> Circuits.Suite.all | names -> List.map find_circuit names
    in
    ignore ((table1 (experiments ~patterns ~seed ~circuits)).run ~degraded:false);
    0
  in
  Cmd.v
    (Cmd.info "table1" ~doc:(table1 default_experiments).doc)
    Term.(const run $ library_file_arg $ patterns_arg $ seed_arg $ only)

let flow_all_families ~patterns ~seed ~name source =
  let tables = List.map Techmap.Matchlib.build (Cell.Genlib.libraries ()) in
  R.get_exn (F.run ~patterns ~seed ~name tables source)

(* `synth` goes through the checked error path end to end: every failure
   (unknown circuit, malformed generator output, mapping dead-end,
   co-simulation mismatch) is reported as a typed error and exits with
   its per-class code, exactly like the other subcommands. *)
let run_synth circuit libfiles patterns seed domains =
  validate_patterns patterns;
  validate_seed seed;
  apply_runtime_opts ~domains;
  load_library_files libfiles;
  let body () =
    let { Circuits.Suite.name; description; generate } = find_circuit circuit in
    let flow = flow_all_families ~patterns ~seed ~name generate in
    Format.fprintf std "%s (%s): %a [%a]@." name description Aigs.Aig.pp_stats flow.F.aig
      Nets.Check.pp_report flow.F.wellformed;
    Format.fprintf std "after resyn2rs: %a@." Aigs.Aig.pp_stats flow.F.optimized;
    List.iter
      (fun (mapped, report) ->
        Format.fprintf std "@.%a@." Techmap.Mapped.pp_stats mapped;
        List.iter
          (fun (name, count) -> Format.fprintf std "  %-10s x%d@." name count)
          (Techmap.Mapped.gate_histogram mapped);
        Format.fprintf std "  %a@." Techmap.Estimate.pp_report report;
        let sta = Techmap.Sta.analyze mapped in
        Format.fprintf std "  %a@." Techmap.Sta.pp_report sta)
      flow.F.results
  in
  match R.protect ~stage:R.Experiment body with
  | Ok () -> 0
  | Result.Error e ->
      Format.eprintf "cntpower: %a@." R.pp e;
      R.exit_code e

let synth_cmd =
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize and map one benchmark with every library, with details.")
    Term.(
      const run_synth $ circuit_arg $ library_file_arg $ patterns_arg
      $ seed_arg $ domains_arg)

let genlib_cmd =
  let run libfiles =
    load_library_files libfiles;
    List.iter
      (fun lib ->
        Format.fprintf std "# %a@.%s@." Cell.Genlib.pp_summary lib
          (Cell.Genlib.to_genlib_string lib))
      (Cell.Genlib.libraries ());
    0
  in
  Cmd.v
    (Cmd.info "genlib" ~doc:"Dump the mapping libraries in genlib syntax.")
    Term.(const run $ library_file_arg)

(* The flow on a BLIF file, for `check` and `all --with-blif`. *)
let run_blif_pipeline ppf ~patterns ~seed path =
  let flow = flow_all_families ~patterns ~seed ~name:path (fun () -> Nets.Blif.read_file path) in
  Format.fprintf ppf "%s: %a [%a]@." path Nets.Netlist.pp_stats flow.F.netlist
    Nets.Check.pp_report flow.F.wellformed;
  List.concat_map
    (fun ((mapped : Techmap.Mapped.t), report) ->
      let lib = mapped.Techmap.Mapped.lib.Cell.Genlib.name in
      Format.fprintf ppf "  %-20s %a@." lib Techmap.Estimate.pp_report report;
      [
        (lib ^ ".gates", float_of_int report.Techmap.Estimate.gates);
        (lib ^ ".total_uW", report.Techmap.Estimate.total *. 1e6);
      ])
    flow.F.results

let check_cmd =
  let file =
    let doc = "BLIF file to parse, validate and map." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file libfiles patterns seed =
    validate_patterns patterns;
    validate_seed seed;
    load_library_files libfiles;
    let (_ : (string * float) list) = run_blif_pipeline std ~patterns ~seed file in
    0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Parse a BLIF netlist, run the well-formedness checker and map it. \
          Malformed input exits non-zero with a typed error, never a \
          backtrace.")
    Term.(const run $ file $ library_file_arg $ patterns_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* `all` and `campaign`: supervised runs on Experiments.Campaign.      *)

module Cg = Experiments.Campaign

let log_level_arg =
  let doc =
    "Verbosity of the live event echo on stderr: $(b,quiet) silences all \
     journal chatter, $(b,info) (default) echoes shard completions, \
     retries and worker failures, $(b,debug) echoes every event. The \
     on-disk events.jsonl always records everything."
  in
  Arg.(
    value
    & opt (enum [ ("quiet", None); ("info", Some Jn.Info); ("debug", Some Jn.Debug) ])
        (Some Jn.Info)
    & info [ "log-level" ] ~docv:"LEVEL" ~doc)

(* The flags `all` and `campaign` read alike, in one term: --run (named
   [default_run] unless given), --resume, --only, the --inject-* family,
   and the pipeline's library files, patterns, seed, log level and
   domains. Its setup validates and applies them, and starts the run's
   Campaign.config; each command then sets its own worker count,
   deadline and attempt budget. *)
let supervised_term ~default_run =
  let run_arg =
    let doc =
      "Run name; the queue log, manifest, journal, metrics and profile live \
       under _runs/$(docv)/."
    in
    Arg.(value & opt string default_run & info [ "run" ] ~docv:"NAME" ~doc)
  in
  let resume_arg =
    let doc =
      "Continue an existing run: reclaim leases left by a dead coordinator, \
       skip shards the queue log records as done with the same seed and \
       workload, and re-run every other one. Without this flag an \
       existing queue log is refused."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let names name doc =
    Arg.(value & opt_all string [] & info [ name ] ~docv:"NAME" ~doc)
  in
  let only_arg =
    names "only"
      "Run only the shards $(docv) names (repeatable): an experiment of \
       `all`, or a campaign shard by its id <circuit>/<library>/<seed> or \
       by its circuit. Shards run in their usual order; a name that \
       selects no shard is a usage error (exit 13)."
  in
  let crash_arg =
    names "inject-crash"
      "Fault injection: SIGKILL the worker of the shard $(docv) names (as \
       for --only) on every attempt — a deterministic poison shard."
  in
  let flaky_arg =
    names "inject-flaky"
      "Fault injection: SIGKILL the named shard's worker on its first \
       attempt only, so the degraded retry succeeds."
  in
  let hang_arg =
    names "inject-hang"
      "Fault injection: wedge the named shard's worker until the deadline \
       kills it."
  in
  let setup campaign resume only inj_crash inj_flaky inj_hang libfiles
      patterns seed log_level domains =
    validate_patterns patterns;
    validate_seed seed;
    apply_runtime_opts ~domains;
    (* Before the run starts: shard workers fork from this process, so
       registrations are inherited by every shard. *)
    load_library_files libfiles;
    Jn.set_verbosity log_level;
    let inject = { Cg.no_inject with Cg.inj_crash; inj_flaky; inj_hang } in
    ({ (Cg.default_config ~campaign) with Cg.resume; inject }, only, patterns, seed)
  in
  Term.(
    const setup $ run_arg $ resume_arg $ only_arg $ crash_arg $ flaky_arg
    $ hang_arg $ library_file_arg $ patterns_arg $ seed_arg $ log_level_arg
    $ domains_arg)

(* Select the shards --only names, then run them with the event journal
   on: shard transitions are its observable surface, and `trace` and
   post-mortems feed on them. The run name is checked before the journal
   opens in its directory; any other invalid configuration (an existing
   queue log without --resume among them) leaves as a typed error too. *)
let run_supervised cfg ~only shards =
  let shards = R.get_exn (Cg.select ~only shards) in
  R.get_exn (Cg.validate_run_name cfg.Cg.campaign);
  Jn.set_enabled true;
  let events = Cg.run_file ~runs_dir:cfg.Cg.runs_dir cfg.Cg.campaign "events.jsonl" in
  (match Jn.open_sink ~path:events () with
  | Ok () -> ()
  | Result.Error e ->
      Format.eprintf "cntpower: cannot open event journal: %a@." R.pp e;
      Jn.set_enabled false);
  let result = Cg.run cfg shards in
  Jn.close_sink ();
  Jn.set_enabled false;
  T.set_enabled false;
  R.get_exn result

let print_run_files cfg =
  Format.fprintf std "queue: %s@.manifest: %s@." (Cg.queue_path cfg)
    (Cg.manifest_path cfg)

let all_cmd =
  let strict_arg =
    let keep_going =
      ( false,
        Arg.info [ "keep-going" ]
          ~doc:
            "Run every experiment even if one fails; collect failures into \
             the final summary and exit 10 if any failed (default)." )
    in
    let strict =
      ( true,
        Arg.info [ "strict" ]
          ~doc:
            "Stop at the first failing experiment, report the ones not run \
             as skipped, and exit 11." )
    in
    Arg.(value & vflag false [ keep_going; strict ])
  in
  let with_blif_arg =
    let doc =
      "Additionally run the BLIF pipeline (parse, well-formedness check, map, \
       estimate) on $(docv) as an experiment named blif:<basename> \
       (repeatable). Used by the fault-injection smoke tests."
    in
    Arg.(value & opt_all string [] & info [ "with-blif" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc =
      "Wall-clock watchdog per experiment attempt, in seconds; a worker \
       exceeding it is killed and reported as experiment/worker-timeout. 0 \
       disables the watchdog."
    in
    Arg.(value & opt float 900.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let retries_arg =
    let doc =
      "Extra attempts after a worker crash or timeout, each after a short \
       backoff; any other failure is final. Retries run degraded: an \
       experiment with a workload (Table 1's and a BLIF's patterns, E12's \
       cycles, E15's samples) runs half of it, and the result is tagged as \
       degraded in the summary and manifest."
    in
    Arg.(value & opt int 1 & info [ "retries" ] ~doc)
  in
  let profile_arg =
    let doc =
      "Collect per-run telemetry (hierarchical spans, counters, simulator \
       throughput distributions) and write it to _runs/<run>/profile.json; \
       render it later with `cntpower stats <run>`. Workers profile \
       themselves and ship their span trees back to the parent, where each \
       lands under a span named for its experiment."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let run (cfg, only, patterns, seed) strict with_blifs timeout retries profile =
    validate_timeout timeout;
    validate_range "retries" ~lo:0 ~hi:1000 retries;
    (* One shard per experiment, keyed for resume on the run's seed and
       the experiment's workload; the worker prints its report on
       stdout. *)
    let shard id doc workload run =
      {
        Cg.id;
        key = Printf.sprintf "seed %Ld, workload %d" seed workload;
        seed;
        patterns;
        run =
          (fun ~degraded ->
            Format.fprintf std "@.=== %s: %s ===@." id doc;
            run ~degraded);
      }
    in
    let shards =
      List.map
        (fun e -> shard e.name e.doc e.workload e.run)
        (experiments ~patterns ~seed ~circuits:Circuits.Suite.all)
      @ List.map
          (fun path ->
            shard
              ("blif:" ^ Filename.basename path)
              ("external BLIF pipeline on " ^ path)
              patterns
              (fun ~degraded ->
                run_blif_pipeline std ~patterns:(shed ~degraded patterns) ~seed path))
          with_blifs
    in
    let cfg =
      {
        cfg with
        Cg.workers = 1;
        shard_timeout_s = timeout;
        max_attempts = retries + 1;
        strict;
      }
    in
    if profile then begin
      T.set_enabled true;
      T.reset ()
    end;
    let s = run_supervised cfg ~only shards in
    Cg.print_results std s;
    print_run_files cfg;
    if profile then
      Format.fprintf std "profile: %s@."
        (Cg.run_file ~runs_dir:cfg.Cg.runs_dir cfg.Cg.campaign "profile.json");
    Cg.exit_status cfg s
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every experiment (E1-E15 and the ablations) as the shards of a \
          supervised run: one forked worker with a watchdog timeout per \
          attempt, crash and timeout retries in degraded mode, every \
          transition in the crash-safe queue log _runs/<run>/queue.jsonl \
          and the results in the manifest rendered from it; --resume \
          continues an interrupted run, with a final pass/fail summary.")
    Term.(
      const run $ supervised_term ~default_run:"all" $ strict_arg
      $ with_blif_arg $ timeout_arg $ retries_arg $ profile_arg)

let campaign_cmd =
  let library_arg =
    let doc =
      "Restrict the sweep to the given libraries (repeatable); default \
       every library, built-in or loaded."
    in
    Arg.(value & opt_all string [] & info [ "library" ] ~docv:"NAME" ~doc)
  in
  let seeds_arg =
    let doc =
      "Number of seeds per (circuit, library) cell: seeds --seed, \
       --seed+1, ..."
    in
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Concurrent forked shard workers." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let shard_timeout_arg =
    let doc =
      "Per-shard-attempt deadline in seconds; a worker outliving it is \
       killed and the attempt counts as failed. 0 disables the deadline."
    in
    Arg.(value & opt float 300.0 & info [ "shard-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_attempts_arg =
    let doc =
      "Attempts per shard in this invocation: a worker crash or timeout is \
       retried after a backoff until this many attempts have failed, any \
       other failure at once, and then the shard is quarantined and the \
       campaign continues degraded (exit 30 at the end if anything was \
       quarantined)."
    in
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let inject_kill_after_arg =
    let doc =
      "Fault injection: SIGKILL the coordinator itself right after the \
       $(docv)th shard completion of this invocation hits the queue log \
       (before the manifest write) — the crash --resume must recover from."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-kill-after" ] ~docv:"N" ~doc)
  in
  let run (cfg, only, patterns, seed) libs seeds_n workers shard_timeout
      max_attempts kill_after =
    validate_timeout shard_timeout;
    validate_range "workers" ~lo:1 ~hi:128 workers;
    validate_range "max-attempts" ~lo:1 ~hi:100 max_attempts;
    validate_range "seeds" ~lo:1 ~hi:10_000 seeds_n;
    (match kill_after with
    | Some n when n < 1 ->
        R.failf R.Cli R.Validation_error
          "--inject-kill-after must be >= 1 (got %d)" n
    | _ -> ());
    let libraries =
      match libs with
      | [] -> Cell.Genlib.libraries ()
      | names -> List.map find_library names
    in
    let seeds = List.init seeds_n (fun i -> Int64.add seed (Int64.of_int i)) in
    let cfg =
      {
        cfg with
        Cg.workers;
        shard_timeout_s = shard_timeout;
        max_attempts;
        inject = { cfg.Cg.inject with Cg.inj_kill_after = kill_after };
      }
    in
    (* Telemetry is always on for a campaign: workers ship their profiles
       back through the supervisor pipe. *)
    T.set_enabled true;
    T.reset ();
    let s =
      run_supervised cfg ~only
        (Cg.grid ~circuits:Circuits.Suite.all ~libraries ~seeds ~patterns)
    in
    Format.fprintf std "%a@." Cg.pp_summary s;
    print_run_files cfg;
    match Cg.quarantined s with
    | [] -> 0
    | ids ->
        let e =
          R.makef
            ~context:[ ("shards", String.concat "," ids) ]
            R.Experiment R.Shard_quarantined "%d shard(s) quarantined"
            (List.length ids)
        in
        Format.eprintf "cntpower: %a@." R.pp e;
        R.exit_code e
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a durable (circuit × library × seed) sweep on a crash-safe \
          work-queue: every shard transition is an appended, flushed line \
          in _runs/<run>/queue.jsonl, shards run in forked workers under \
          per-attempt deadlines with bounded retry + exponential backoff, \
          poison shards are quarantined after --max-attempts (campaign \
          continues degraded, exit 30), and --resume after a hard kill \
          reclaims stale leases and re-runs only what is not recorded \
          done. Results stream into the run manifest and telemetry \
          profile, so stats/trace/compare work mid-campaign.")
    Term.(
      const run $ supervised_term ~default_run:"campaign" $ library_arg
      $ seeds_arg $ workers_arg $ shard_timeout_arg $ max_attempts_arg
      $ inject_kill_after_arg)

(* ------------------------------------------------------------------ *)
(* `golden`: the regression gate over a run manifest. *)

let golden_cmd =
  let manifest_arg =
    let doc = "Run manifest to read (written by `cntpower all`)." in
    Arg.(value & opt string (Cg.run_file "all" "manifest.json") & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let golden_arg =
    let doc = "Golden metrics file." in
    Arg.(value & opt string "golden/golden.json" & info [ "golden" ] ~docv:"FILE" ~doc)
  in
  (* One choice: --check and --update together are a usage error. *)
  let update_arg =
    let check =
      ( false,
        Arg.info [ "check" ]
          ~doc:"Compare the manifest against the golden file (default)." )
    in
    let update =
      ( true,
        Arg.info [ "update" ]
          ~doc:"Regenerate the golden file from the manifest instead of checking."
      )
    in
    Arg.(value & vflag false [ check; update ])
  in
  let rtol_arg =
    let doc =
      "Relative tolerance assigned to non-integral metrics on --update \
       (integral metrics are pinned exactly)."
    in
    Arg.(value & opt float 0.1 & info [ "rtol" ] ~doc)
  in
  let only_arg =
    let doc = "On --update, restrict the golden set to the named experiments (repeatable)." in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME" ~doc)
  in
  let run manifest golden update rtol only =
    if rtol < 0.0 || rtol > 1.0 then
      R.failf R.Cli R.Validation_error "--rtol must be in [0, 1] (got %g)" rtol;
    let m = R.get_exn (C.load ~path:manifest) in
    if update then begin
      let experiments = match only with [] -> None | names -> Some names in
      let metrics = C.golden_of_manifest ~rtol ?experiments m in
      if metrics = [] then
        R.failf
          ~context:[ ("manifest", manifest) ]
          R.Cli R.Validation_error
          "manifest has no passing entries to turn into golden metrics";
      R.get_exn (C.save_golden ~path:golden metrics);
      Format.fprintf std "golden: wrote %d metrics from %d manifest entries to %s@."
        (List.length metrics) (List.length m.C.entries) golden;
      0
    end
    else begin
      let metrics = R.get_exn (C.load_golden ~path:golden) in
      List.iter
        (fun (e : C.entry) ->
          if e.C.status = C.Degraded then
            Format.fprintf std
              "golden: note: %s is a degraded result (checked all the same)@."
              e.C.experiment)
        m.C.entries;
      match C.check_golden m metrics with
      | [] ->
          Format.fprintf std "golden: OK — %d metrics within tolerance (%s)@."
            (List.length metrics) golden;
          0
      | drifts ->
          List.iter (fun d -> Format.eprintf "golden: DRIFT %a@." C.pp_drift d) drifts;
          (* Drift is a first-class run event: append it to the journal
             living next to the manifest so the run's events.jsonl tells
             the whole story, gate included. *)
          let events_path =
            Filename.concat (Filename.dirname manifest) "events.jsonl"
          in
          Jn.set_enabled true;
          Jn.set_verbosity None;
          (match Jn.open_sink ~path:events_path () with
          | Ok () ->
              List.iter
                (fun (d : C.drift) ->
                  Jn.emit ~level:Jn.Warn Jn.Golden_drift
                    [
                      ("experiment", d.C.d_experiment);
                      ("metric", d.C.d_metric);
                      ("expected", Printf.sprintf "%.6g" d.C.d_expected);
                      ( "actual",
                        match d.C.d_actual with
                        | None -> "missing"
                        | Some a -> Printf.sprintf "%.6g" a );
                      ("rtol", Printf.sprintf "%g" d.C.d_rtol);
                    ])
                drifts;
              Jn.close_sink ()
          | Result.Error _ -> ());
          Jn.set_enabled false;
          let e =
            R.makef
              ~context:[ ("manifest", manifest); ("golden", golden) ]
              R.Cli R.Mismatch "%d of %d golden metrics drifted out of tolerance"
              (List.length drifts) (List.length metrics)
          in
          Format.eprintf "cntpower: %a@." R.pp e;
          R.exit_code e
    end
  in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "Check a run manifest against committed golden results (paper's \
          headline numbers) with per-metric relative tolerances; nonzero \
          exit on drift. --update regenerates the golden file.")
    Term.(
      const run $ manifest_arg $ golden_arg $ update_arg $ rtol_arg $ only_arg)

(* ------------------------------------------------------------------ *)
(* `stats`: render a run's telemetry profile. *)

(* A run's journal for `stats` and `trace`, read leniently: torn or
   corrupt lines are skipped with a warning (silent data loss is not
   OK), and a missing or unreadable journal reads as none. *)
let load_journal path =
  if not (Sys.file_exists path) then None
  else
    match Jn.load ~path with
    | Ok (evs, skipped) ->
        if skipped > 0 then
          Format.eprintf
            "cntpower: skipped %d malformed line(s) in %s (torn write?)@."
            skipped path;
        Some (evs, skipped)
    | Result.Error e ->
        Format.eprintf "cntpower: cannot read journal %s: %a@." path R.pp e;
        None

(* Machine-readable stats rendering: span paths flattened, quantiles
   precomputed — the shape scripts want, on the Checkpoint JSON dialect. *)
let stats_json ~path ?journal prof =
  C.Obj
    ([ ("profile", C.Str path) ]
    @ (match journal with
      | None -> []
      | Some (events, skipped) ->
          [
            ( "journal",
              C.Obj
                [
                  ("events", C.Num (float_of_int events));
                  ("skipped_lines", C.Num (float_of_int skipped));
                ] );
          ])
    @ [
        ( "spans",
          C.Arr
            (List.map
               (fun (p, (s : T.span)) ->
                 C.Obj
                   [
                     ("path", C.Str p);
                     ("calls", C.Num (float_of_int s.T.calls));
                     ("total_s", C.Num s.T.total_s);
                   ])
               (T.flatten prof.T.p_spans)) );
        ("counters", C.obj (fun v -> C.Num (float_of_int v)) prof.T.p_counters);
        ( "dists",
          C.Arr
            (List.map
               (fun (name, d) ->
                 C.Obj (("name", C.Str name) :: T.summary_fields (T.summarize d)))
               prof.T.p_dists) );
      ])

(* Span ordering for `stats`: applied recursively, so every level of the
   tree (and the --json flattening, which walks the same tree) comes out
   in the requested order. *)
let rec sort_spans ~cmp ~top spans =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let spans = List.stable_sort cmp spans in
  let spans = match top with Some n -> take n spans | None -> spans in
  List.map
    (fun (s : Runtime.Telemetry.span) ->
      { s with T.children = sort_spans ~cmp ~top s.T.children })
    spans

let span_cmp = function
  | `Wall ->
      fun (a : Runtime.Telemetry.span) (b : Runtime.Telemetry.span) ->
        Float.compare b.T.total_s a.T.total_s
  | `Count ->
      fun (a : Runtime.Telemetry.span) (b : Runtime.Telemetry.span) ->
        compare (b.T.calls, b.T.span_name) (a.T.calls, a.T.span_name)
  | `Path ->
      fun (a : Runtime.Telemetry.span) (b : Runtime.Telemetry.span) ->
        String.compare a.T.span_name b.T.span_name

let stats_cmd =
  let run_pos =
    let doc = "Run name whose profile to render (_runs/$(docv)/profile.json)." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"RUN" ~doc)
  in
  let file_arg =
    let doc = "Read the profile from $(docv) instead of _runs/<run>/profile.json." in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the rendering as JSON on stdout (flattened span paths, \
       counters, distribution quantiles) instead of the human tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let sort_arg =
    let doc =
      "Span ordering at every tree level: $(b,wall) (total wall time, \
       largest first — the default, so the expensive stages lead), \
       $(b,count) (call count), or $(b,path) (name, alphabetical)."
    in
    Arg.(
      value
      & opt (enum [ ("wall", `Wall); ("count", `Count); ("path", `Path) ]) `Wall
      & info [ "sort" ] ~docv:"KEY" ~doc)
  in
  let top_arg =
    let doc = "Show only the top $(docv) spans at each tree level." in
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N" ~doc)
  in
  let run run_name file json sort top =
    (match top with
    | Some n when n < 1 ->
        R.failf
          ~context:[ ("top", string_of_int n) ]
          R.Cli R.Validation_error "--top must be >= 1 (got %d)" n
    | _ -> ());
    let path =
      match file with Some p -> p | None -> Cg.run_file run_name "profile.json"
    in
    let prof = R.get_exn (T.load ~path) in
    let prof =
      { prof with T.p_spans = sort_spans ~cmp:(span_cmp sort) ~top prof.T.p_spans }
    in
    (* The run's journal rides along when stats is pointed at a run (not
       a bare --file): event count plus how many torn/corrupt lines the
       lenient loader had to skip — silent data loss is not OK. *)
    let journal =
      match file with
      | Some _ -> None
      | None ->
          Option.map
            (fun (evs, skipped) -> (List.length evs, skipped))
            (load_journal (Cg.run_file run_name "events.jsonl"))
    in
    if json then print_string (C.json_to_string (stats_json ~path ?journal prof))
    else begin
      Format.fprintf std "profile: %s@." path;
      (match journal with
      | Some (events, skipped) ->
          Format.fprintf std "journal: %d events" events;
          if skipped > 0 then
            Format.fprintf std " (%d torn/corrupt line(s) skipped)" skipped;
          Format.fprintf std "@."
      | None -> ());
      T.pp std prof
    end;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print the telemetry profile of a run recorded with \
          `cntpower all --profile`: the hierarchical span tree (wall time \
          per pipeline stage per experiment), monotonic counters (DC \
          solves, cache hits, matches tried, words simulated) and \
          throughput distributions; --json emits the same data \
          machine-readably. Spans are sorted by total wall time (--sort \
          count/path for other orders, --top N to truncate each level). A \
          missing or malformed profile exits with its typed error code, \
          never a backtrace.")
    Term.(const run $ run_pos $ file_arg $ json_arg $ sort_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* `trace`: Chrome trace_event export of profile + journal.            *)

let trace_cmd =
  let run_pos =
    let doc =
      "Run whose profile and journal to export \
       (_runs/$(docv)/profile.json + events.jsonl)."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"RUN" ~doc)
  in
  let out_arg =
    let doc = "Write the trace to $(docv) instead of _runs/<run>/trace.json." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let request_arg =
    let doc =
      "Slice the export down to one request/shard: $(docv) is a shard id \
       (<circuit>/<library>/<seed>, or an experiment name for `all`), a \
       worker name (req-<n>) or a daemon request number. Only that \
       worker's telemetry subtree and the journal events naming it (every \
       attempt's, for a retried shard) are exported, on its worker's PID \
       track."
    in
    Arg.(value & opt (some string) None & info [ "request" ] ~docv:"NAME" ~doc)
  in
  let run run_name out request =
    let prof = R.get_exn (T.load ~path:(Cg.run_file run_name "profile.json")) in
    let events, skipped =
      Option.value ~default:([], 0)
        (load_journal (Cg.run_file run_name "events.jsonl"))
    in
    if events = [] then
      Format.eprintf
        "cntpower: no journal events for run %s; spans will be laid out \
         sequentially on one track@."
        run_name;
    let prof, events, sliced =
      match request with
      | None -> (prof, events, "")
      | Some arg -> (
          match Tr.resolve ~events arg with
          | None ->
              R.failf
                ~context:[ ("request", arg) ]
                R.Cli R.Validation_error
                "no journal event of run %s names worker, shard or request \
                 number %S"
                run_name arg
          | Some worker ->
              let p, evs = Tr.slice ~worker ~events prof in
              (p, evs, Printf.sprintf ", sliced to worker %s" worker))
    in
    let out = match out with Some p -> p | None -> Cg.run_file run_name "trace.json" in
    R.get_exn (Tr.save ~path:out ~events prof);
    Format.fprintf std
      "trace: %s (%d journal events, %d torn/corrupt line(s) skipped%s; \
       open in chrome://tracing or ui.perfetto.dev)@."
      out (List.length events) skipped sliced;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Export a profiled run as Chrome trace_event JSON: telemetry \
          spans become duration events, one track per worker PID \
          (anchored at the journal's worker_spawned timestamps), and \
          journal events become instants. --request <name> slices a \
          single shard or daemon request by its worker name. Open the \
          result in chrome://tracing or Perfetto. Requires a profiled \
          run (`all --profile`, `campaign`, or `serve`).")
    Term.(const run $ run_pos $ out_arg $ request_arg)

(* ------------------------------------------------------------------ *)
(* `compare`: cross-run regression gate over profiles + manifests.     *)

let compare_cmd =
  let base_pos =
    let doc =
      "Baseline run name, or a profile JSON file (an argument containing \
       a '/' or ending in .json is read as a file)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN-A" ~doc)
  in
  let cur_pos =
    let doc = "Current run name (or profile JSON file) to compare against the baseline." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"RUN-B" ~doc)
  in
  let baseline_arg =
    let doc =
      "Compare $(i,RUN-A) (as the current run) against this baseline \
       profile file, e.g. the committed BENCH_profile.json."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let wall_rtol_arg =
    let doc = "Allowed relative wall-clock slowdown per span before it regresses." in
    Arg.(value & opt float Cp.default.Cp.wall_rtol & info [ "wall-rtol" ] ~doc)
  in
  let counter_rtol_arg =
    let doc = "Allowed relative drift per counter (two-sided)." in
    Arg.(value & opt float Cp.default.Cp.counter_rtol & info [ "counter-rtol" ] ~doc)
  in
  let scalar_rtol_arg =
    let doc = "Allowed relative drift per manifest scalar (two-sided)." in
    Arg.(value & opt float Cp.default.Cp.scalar_rtol & info [ "scalar-rtol" ] ~doc)
  in
  let dist_rtol_arg =
    let doc =
      "Allowed relative drop of a distribution mean (one-sided; \
       distributions like sim.patterns_per_s are throughput — only \
       slower regresses)."
    in
    Arg.(value & opt float Cp.default.Cp.dist_rtol & info [ "dist-rtol" ] ~doc)
  in
  let min_wall_arg =
    let doc =
      "Spans faster than this (seconds) in both runs never regress — \
       sub-jitter timings are noise."
    in
    Arg.(value & opt float Cp.default.Cp.min_wall_s & info [ "min-wall" ] ~docv:"SECONDS" ~doc)
  in
  let json_arg =
    let doc = "Emit the comparison report as JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let validate_rtol name v =
    if not (Float.is_finite v) || v < 0.0 then
      R.failf
        ~context:[ (name, Printf.sprintf "%h" v) ]
        R.Cli R.Validation_error "--%s must be a finite number >= 0 (got %g)"
        name v
  in
  let side_of arg =
    if String.contains arg '/' || Filename.check_suffix arg ".json" then
      `File arg
    else `Run arg
  in
  let profile_of = function
    | `File p -> R.get_exn (T.load ~path:p)
    | `Run r -> R.get_exn (T.load ~path:(Cg.run_file r "profile.json"))
  in
  let manifest_of = function
    | `File _ -> None
    | `Run r ->
        let path = Cg.run_file r "manifest.json" in
        if not (Sys.file_exists path) then None
        else (
          match C.load ~path with
          | Ok m -> Some m
          | Result.Error e ->
              Format.eprintf
                "cntpower: ignoring unreadable manifest %s: %a@." path R.pp e;
              None)
  in
  let run base_arg cur_arg baseline wall_rtol counter_rtol scalar_rtol
      dist_rtol min_wall json =
    validate_rtol "wall-rtol" wall_rtol;
    validate_rtol "counter-rtol" counter_rtol;
    validate_rtol "scalar-rtol" scalar_rtol;
    validate_rtol "dist-rtol" dist_rtol;
    validate_rtol "min-wall" min_wall;
    let base, cur =
      match (baseline, cur_arg) with
      | Some file, None -> (`File file, side_of base_arg)
      | None, Some cur -> (side_of base_arg, side_of cur)
      | Some _, Some _ ->
          R.failf R.Cli R.Validation_error
            "give either RUN-B or --baseline FILE, not both"
      | None, None ->
          R.failf R.Cli R.Validation_error
            "compare needs two runs, or one run and --baseline FILE"
    in
    let tol =
      {
        Cp.wall_rtol;
        counter_rtol;
        scalar_rtol;
        dist_rtol;
        min_wall_s = min_wall;
      }
    in
    let base_prof = profile_of base in
    let cur_prof = profile_of cur in
    let items = Cp.compare_profiles ~tol ~base:base_prof cur_prof in
    let items =
      match (manifest_of base, manifest_of cur) with
      | Some bm, Some cm -> items @ Cp.compare_manifests ~tol ~base:bm cm
      | _ -> items
    in
    let report = { Cp.tol; items } in
    if json then print_string (C.json_to_string (Cp.to_json report))
    else Cp.pp std report;
    match Cp.regression_error report with
    | None -> 0
    | Some e ->
        Format.eprintf "cntpower: %a@." R.pp e;
        R.exit_code e
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two profiled runs (or one run against a committed baseline \
          profile): per-span wall-clock deltas, counter drift, and \
          manifest scalar drift, each under its own relative tolerance. \
          Exits 0 when everything is within tolerance and 28 \
          (cli/regression) when any metric regressed, so CI can gate on \
          performance drift exactly like `golden --check` gates on \
          metric drift.")
    Term.(
      const run $ base_pos $ cur_pos $ baseline_arg $ wall_rtol_arg
      $ counter_rtol_arg $ scalar_rtol_arg $ dist_rtol_arg $ min_wall_arg
      $ json_arg)

(* ------------------------------------------------------------------ *)
(* `serve` / `request`: the fault-tolerant estimation daemon.          *)

module Sv = Runtime.Server

let report_json (r : Techmap.Estimate.report) =
  C.Obj
    [
      ("gates", C.Num (float_of_int r.Techmap.Estimate.gates));
      ("area", C.Num r.Techmap.Estimate.area);
      ("delay_s", C.Num r.Techmap.Estimate.delay);
      ("dynamic_W", C.Num r.Techmap.Estimate.dynamic);
      ("short_circuit_W", C.Num r.Techmap.Estimate.short_circuit);
      ("static_W", C.Num r.Techmap.Estimate.static);
      ("gate_leak_W", C.Num r.Techmap.Estimate.gate_leak);
      ("total_W", C.Num r.Techmap.Estimate.total);
      ("edp_Js", C.Num r.Techmap.Estimate.edp);
    ]

type serve_job = {
  sj_lib : Cell.Genlib.t;
  sj_netlist : Nets.Netlist.t;
  sj_patterns : int;
  sj_seed : int64;
  sj_domains : int option;
  sj_inject : string option;
}

let as_int name v =
  match C.as_num name v with
  | Result.Error _ as e -> e
  | Ok f ->
      if Float.is_integer f && Float.abs f < 1e15 then Ok (int_of_float f)
      else
        R.error
          ~context:[ (name, Printf.sprintf "%g" f) ]
          R.Cli R.Validation_error "%s must be an integer" name

(* Admission runs in the server process: cheap typed validation of every
   parameter plus a full BLIF parse + well-formedness check, so garbage
   is refused before a worker is ever spawned; the worker gets the netlist. *)
let serve_admit ~allow_inject json =
  let ( let* ) = Result.bind in
  let* blif = C.str_field json "blif" in
  let* lib_name = C.opt_field C.as_str json "library" ~default:"cntfet-generalized" in
  let* lib = R.protect ~stage:R.Cli (fun () -> find_library lib_name) in
  let* patterns =
    C.opt_field as_int json "patterns" ~default:Techmap.Estimate.default_patterns
  in
  let* seed =
    C.opt_field (fun n v -> Result.map Int64.of_int (as_int n v)) json "seed"
      ~default:42L
  in
  let* domains =
    C.opt_field (fun n v -> Result.map Option.some (as_int n v)) json "domains"
      ~default:None
  in
  let* () =
    R.protect ~stage:R.Cli (fun () ->
        validate_patterns patterns;
        validate_seed seed;
        validate_domains domains)
  in
  let* nl = Nets.Blif.parse_string blif in
  let* (_ : Nets.Check.report) = Nets.Check.check nl in
  let* inject =
    C.opt_field
      (fun n v ->
        let* s = C.as_str n v in
        if not allow_inject then
          R.error R.Cli R.Validation_error
            "fault injection is disabled (start the daemon with --allow-inject)"
        else if s = "crash" || s = "hang" then Ok (Some s)
        else R.error R.Cli R.Validation_error "unknown inject %S (crash or hang)" s)
      json "inject" ~default:None
  in
  Ok
    {
      sj_lib = lib;
      sj_netlist = nl;
      sj_patterns = patterns;
      sj_seed = seed;
      sj_domains = domains;
      sj_inject = inject;
    }

(* Runs in the forked worker. Fault injection mimics a worker crash /
   wedge from inside the request, exactly what the supervisor machinery
   exists to contain. *)
let serve_execute job =
  (match job.sj_inject with
  | Some "crash" -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some "hang" ->
      while true do
        Unix.sleepf 3600.0
      done
  | _ -> ());
  Result.map
    (fun flow -> report_json (snd (List.hd flow.F.results)))
    (F.run ?domains:job.sj_domains ~patterns:job.sj_patterns ~seed:job.sj_seed
       ~name:"request" [ Techmap.Matchlib.build job.sj_lib ] (fun () -> job.sj_netlist))

let serve_describe job =
  [
    ("library", job.sj_lib.Cell.Genlib.name);
    ("patterns", string_of_int job.sj_patterns);
    ("gates", string_of_int (Nets.Netlist.num_gates job.sj_netlist));
  ]

let socket_arg =
  let doc = "Unix-domain socket path the daemon binds (or the client dials)." in
  Arg.(value & opt string "cntpower.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Concurrent forked estimation workers." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admitted requests allowed to wait for a worker; beyond this the \
       daemon sheds with an immediate `overloaded` response."
    in
    Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_bytes_arg =
    let doc = "Admission cap on the request frame payload, in bytes." in
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"BYTES" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request deadline in seconds; a worker outliving it is \
       killed and the request answered with a typed worker-timeout error."
    in
    Arg.(value & opt float 60.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let drain_arg =
    let doc = "Budget for finishing in-flight work on SIGTERM/SIGINT." in
    Arg.(value & opt float 30.0 & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let breaker_arg =
    let doc =
      "Worker crashes within the breaker window that trip the circuit \
       breaker and flip the daemon to draining."
    in
    Arg.(value & opt int 5 & info [ "breaker" ] ~docv:"N" ~doc)
  in
  let breaker_window_arg =
    let doc = "Circuit-breaker crash-counting window, in seconds." in
    Arg.(value & opt float 60.0 & info [ "breaker-window" ] ~docv:"SECONDS" ~doc)
  in
  let allow_inject_arg =
    let doc =
      "Accept `inject` fields in requests (crash/hang the worker); for the \
       resilience tests only."
    in
    Arg.(value & flag & info [ "allow-inject" ] ~doc)
  in
  let run_name_arg =
    let doc =
      "Run name for the journal/telemetry artifacts \
       (_runs/$(docv)/events.jsonl, profile.json, metrics.json); default \
       serve-<unix-time>."
    in
    Arg.(value & opt (some string) None & info [ "run" ] ~docv:"NAME" ~doc)
  in
  let journal_max_bytes_arg =
    let doc =
      "Rotate the event journal when it exceeds $(docv) bytes: the live \
       events.jsonl is renamed events.jsonl.1 (older segments shift up) \
       and a fresh file is started. 0 disables rotation."
    in
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "journal-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let journal_keep_arg =
    let doc = "Rotated journal segments to keep (events.jsonl.1 .. .$(docv))." in
    Arg.(value & opt int 4 & info [ "journal-keep" ] ~docv:"N" ~doc)
  in
  let run socket libfiles workers queue max_bytes deadline drain breaker
      window allow_inject run_name journal_max_bytes journal_keep log_level
      domains =
    validate_timeout deadline;
    validate_timeout drain;
    validate_timeout window;
    if journal_max_bytes < 0 then
      R.failf
        ~context:[ ("journal-max-bytes", string_of_int journal_max_bytes) ]
        R.Cli R.Validation_error "--journal-max-bytes must be >= 0 (got %d)"
        journal_max_bytes;
    validate_range "journal-keep" ~lo:1 ~hi:1000 journal_keep;
    apply_runtime_opts ~domains;
    (* Before the daemon binds: request admission resolves library names
       against the registry, and estimation workers fork from here. *)
    load_library_files libfiles;
    Jn.set_verbosity log_level;
    let run_name =
      match run_name with
      | Some n -> n
      | None -> Printf.sprintf "serve-%d" (int_of_float (Unix.time ()))
    in
    R.get_exn (Cg.validate_run_name run_name);
    (* The journal is always on for the daemon, as is the telemetry
       Sv.run turns on: the typed lifecycle events and the per-request
       profile merge are the observable surface `stats`/`trace`/`compare`
       feed on. *)
    Jn.set_enabled true;
    (match
       Jn.open_sink
         ?max_bytes:
           (if journal_max_bytes = 0 then None else Some journal_max_bytes)
         ~keep:journal_keep
         ~path:(Cg.run_file run_name "events.jsonl") ()
     with
    | Ok () -> ()
    | Result.Error e ->
        Format.eprintf "cntpower: cannot open event journal: %a@." R.pp e;
        Jn.set_enabled false);
    let cfg =
      {
        (Sv.default_config ~socket_path:socket) with
        Sv.max_workers = workers;
        queue_limit = queue;
        max_request_bytes = max_bytes;
        default_deadline_s = deadline;
        drain_timeout_s = drain;
        breaker_threshold = breaker;
        breaker_window_s = window;
        metrics_path = Some (Cg.run_file run_name "metrics.json");
      }
    in
    Format.fprintf std
      "cntpower serve: socket %s, run %s (%d workers, queue %d)@." socket
      run_name workers queue;
    Format.pp_print_flush std ();
    let handlers =
      {
        Sv.admit = serve_admit ~allow_inject;
        execute = serve_execute;
        describe = serve_describe;
      }
    in
    let result = Sv.run cfg handlers in
    let prof = T.snapshot () in
    T.set_enabled false;
    (match T.save ~path:(Cg.run_file run_name "profile.json") prof with
    | Ok () -> Format.fprintf std "profile: %s@." (Cg.run_file run_name "profile.json")
    | Result.Error e ->
        Format.eprintf "cntpower: cannot write profile: %a@." R.pp e);
    Jn.close_sink ();
    Jn.set_enabled false;
    match result with
    | Ok Sv.Drained ->
        Format.fprintf std "serve: drained clean@.";
        0
    | Ok Sv.Tripped ->
        let e =
          R.make R.Experiment R.Worker_killed
            "circuit breaker tripped on worker crash churn; daemon drained"
        in
        Format.eprintf "cntpower: %a@." R.pp e;
        R.exit_code e
    | Result.Error e ->
        Format.eprintf "cntpower: %a@." R.pp e;
        R.exit_code e
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the power-estimation daemon on a Unix socket: length-prefixed \
          JSON requests (estimate/health/metrics), bounded forked-worker \
          pool, admission validation, per-request deadlines, overload \
          shedding, crash isolation with exponential backoff and a circuit \
          breaker, and graceful SIGTERM/SIGINT drain. Journal (rotated at \
          --journal-max-bytes), telemetry and live metrics land in \
          _runs/<run>/ for stats/trace/compare/top.")
    Term.(
      const run $ socket_arg $ library_file_arg $ workers_arg $ queue_arg
      $ max_bytes_arg $ deadline_arg $ drain_arg $ breaker_arg
      $ breaker_window_arg $ allow_inject_arg $ run_name_arg
      $ journal_max_bytes_arg $ journal_keep_arg $ log_level_arg
      $ domains_arg)

let request_cmd =
  let file_arg =
    let doc = "BLIF netlist to estimate (omit with --health)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let health_arg =
    let doc = "Ask the daemon for its health report instead of an estimate." in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let library_arg =
    let doc =
      "Mapping library name (a built-in or one loaded by the daemon, see \
       `cntpower library list`)."
    in
    Arg.(
      value & opt string "cntfet-generalized" & info [ "library" ] ~docv:"NAME" ~doc)
  in
  let req_patterns_arg =
    let doc = "Simulation patterns for the request (server default: 640000)." in
    Arg.(value & opt int 4096 & info [ "p"; "patterns" ] ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline to send (seconds); server default otherwise." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let timeout_arg =
    let doc = "Client-side wait for the response, in seconds." in
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let inject_arg =
    let doc =
      "Fault injection (daemon must run with --allow-inject): $(b,crash) \
       SIGKILLs the worker mid-request, $(b,hang) wedges it until the \
       deadline kill."
    in
    Arg.(
      value
      & opt (some (enum [ ("crash", "crash"); ("hang", "hang") ])) None
      & info [ "inject" ] ~docv:"MODE" ~doc)
  in
  let req_retries_arg =
    let doc =
      "Extra attempts when the daemon sheds the request as overloaded: \
       each retry waits the server's retry_after_s hint (doubled per \
       attempt, jittered, capped at 30 s) before re-dialing. Default 0: \
       give up immediately, as before."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~doc)
  in
  let run socket file health library patterns seed deadline timeout inject
      retries =
    validate_timeout timeout;
    if health then begin
      let resp =
        R.get_exn
          (Sv.call ~socket_path:socket ~timeout_s:timeout
             (C.Obj [ ("verb", C.Str "health") ]))
      in
      (match Sv.response_error resp with
      | Some e -> R.raise_error e
      | None -> ());
      let h =
        match C.field resp "health" with Ok h -> h | Result.Error _ -> resp
      in
      print_endline (C.json_to_string h);
      0
    end
    else begin
      let file =
        match file with
        | Some f -> f
        | None ->
            R.failf R.Cli R.Validation_error
              "request needs a BLIF file argument (or --health)"
      in
      validate_patterns patterns;
      validate_seed seed;
      let blif =
        match In_channel.with_open_bin file In_channel.input_all with
        | s -> s
        | exception Sys_error m -> R.failf R.Cli R.Io_error "%s" m
      in
      let fields =
        [
          ("verb", C.Str "estimate");
          ("blif", C.Str blif);
          ("library", C.Str library);
          ("patterns", C.Num (float_of_int patterns));
          ("seed", C.Num (Int64.to_float seed));
        ]
        @ (match deadline with
          | None -> []
          | Some d -> [ ("deadline_s", C.Num d) ])
        @ match inject with None -> [] | Some s -> [ ("inject", C.Str s) ]
      in
      (* Overload is the one retryable reply: the daemon shed the request
         and said when to come back (retry_after_s). Honor the hint with
         exponential growth and jitter so a herd of shed clients does not
         re-dial in lockstep; everything else still fails fast. *)
      let retry_delay ~hint attempt =
        let frac, _ = Float.modf (Unix.gettimeofday () *. 1000.0) in
        let jitter = 0.75 +. (0.5 *. frac) in
        Float.min 30.0 (hint *. (2.0 ** float_of_int attempt) *. jitter)
      in
      let rec attempt n =
        let resp =
          R.get_exn
            (Sv.call ~socket_path:socket ~timeout_s:timeout (C.Obj fields))
        in
        match Sv.response_error resp with
        | Some e when e.R.code = R.Overloaded && n < retries ->
            let hint =
              match List.assoc_opt "retry_after_s" e.R.context with
              | Some s -> (
                  match float_of_string_opt s with
                  | Some f when Float.is_finite f && f > 0.0 -> f
                  | _ -> 1.0)
              | None -> 1.0
            in
            let delay = retry_delay ~hint n in
            Format.eprintf
              "cntpower: daemon overloaded; retry %d/%d in %.2f s@." (n + 1)
              retries delay;
            Unix.sleepf delay;
            attempt (n + 1)
        | Some e ->
            Format.eprintf "cntpower: %a@." R.pp e;
            R.exit_code e
        | None ->
            let result =
              match C.field resp "result" with
              | Ok r -> r
              | Result.Error _ -> resp
            in
            print_endline (C.json_to_string result);
            0
      in
      attempt 0
    end
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running `cntpower serve` daemon and print \
          the JSON response body. Server-side failures exit with their \
          typed error code (29 when the daemon shed the request under \
          load); transport failures are typed cli/io-error.")
    Term.(
      const run $ socket_arg $ file_arg $ health_arg $ library_arg
      $ req_patterns_arg $ seed_arg $ deadline_arg $ timeout_arg $ inject_arg
      $ req_retries_arg)

(* ------------------------------------------------------------------ *)
(* `metrics` / `top`: live operational metrics from a daemon socket or
   a run directory's metrics.json snapshot.                            *)

module Mx = Runtime.Metrics

(* Target resolution shared by both commands: an existing Unix socket
   (or anything named *.sock — dialing a missing one yields the typed
   io-error) is a live daemon to poll with the `metrics` verb; a *.json
   path is read directly; anything else is a run name under _runs/. *)
let metrics_source arg =
  let is_socket p =
    match Unix.stat p with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  if is_socket arg || Filename.check_suffix arg ".sock" then `Socket arg
  else if Filename.check_suffix arg ".json" then `File arg
  else `File (Cg.run_file arg "metrics.json")

let fetch_metrics ~timeout_s = function
  | `Socket sock ->
      let ( let* ) = Result.bind in
      let* resp =
        Sv.call ~socket_path:sock ~timeout_s
          (C.Obj [ ("verb", C.Str "metrics") ])
      in
      let* () =
        match Sv.response_error resp with
        | Some e -> Result.Error e
        | None -> Ok ()
      in
      let* m = C.field resp "metrics" in
      Mx.of_json m
  | `File path -> Mx.load ~path

let metrics_target_pos =
  let doc =
    "What to read: a daemon socket path (the `metrics` verb is answered \
     inline, even under load or while draining), a run name \
     (_runs/$(docv)/metrics.json, written by `serve` and `campaign`), or \
     a metrics.json file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let metrics_timeout_arg =
  let doc = "Client-side wait for a daemon's metrics response, in seconds." in
  Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let metrics_cmd =
  let json_arg =
    let doc = "Emit the snapshot as JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prometheus_arg =
    let doc =
      "Emit the snapshot as Prometheus text exposition (version 0.0.4): \
       counters as cntpower_*_total, gauges, and distribution summaries \
       with p50/p95 quantile series."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let run target json prometheus timeout =
    validate_timeout timeout;
    let m = R.get_exn (fetch_metrics ~timeout_s:timeout (metrics_source target)) in
    if prometheus then print_string (Mx.to_prometheus m)
    else if json then print_endline (C.json_to_string (Mx.to_json m))
    else Format.fprintf std "%a@." Mx.pp m;
    0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Fetch one live metrics snapshot — request counts by verb and \
          outcome, queue depth, in-flight workers, latency distributions, \
          cache hit ratios — from a running daemon's socket or a run's \
          metrics.json, as a human summary, --json, or --prometheus text \
          exposition.")
    Term.(
      const run $ metrics_target_pos $ json_arg $ prometheus_arg
      $ metrics_timeout_arg)

let top_cmd =
  let interval_arg =
    let doc = "Refresh interval, in seconds." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc = "Print one snapshot and exit instead of refreshing." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let run target interval once timeout =
    validate_timeout timeout;
    if not (Float.is_finite interval) || interval < 0.1 then
      R.failf
        ~context:[ ("interval", Printf.sprintf "%h" interval) ]
        R.Cli R.Validation_error
        "--interval must be a finite number of seconds >= 0.1 (got %g)"
        interval;
    let source = metrics_source target in
    let rec loop () =
      (match fetch_metrics ~timeout_s:timeout source with
      | Ok m ->
          if not once then print_string "\027[2J\027[H";
          Format.fprintf std "%a@." Mx.pp m;
          Format.pp_print_flush std ()
      | Result.Error e ->
          (* One failed poll is not fatal when refreshing: the daemon may
             be mid-restart or the snapshot mid-rename. --once must exit
             typed so scripts and CI can gate on it. *)
          if once then R.raise_error e
          else Format.fprintf std "cntpower top: %a@." R.pp e);
      if once then 0
      else begin
        Unix.sleepf interval;
        loop ()
      end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live one-screen status of a running daemon or campaign: polls \
          the socket's `metrics` verb or the run's metrics.json every \
          --interval seconds and redraws gauges, counters, cache hit \
          ratios and latency summaries; --once prints a single snapshot \
          (typed exit on failure) for scripts.")
    Term.(
      const run $ metrics_target_pos $ interval_arg $ once_arg
      $ metrics_timeout_arg)

(* ------------------------------------------------------------------ *)
(* `library`: inspect, validate and export logic-family definitions.   *)

let library_cmd =
  let name_pos =
    let doc = "Library name (see `cntpower library list`)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let origin_of lib =
    let name = lib.Cell.Genlib.name in
    let builtin =
      List.exists
        (fun (l : Cell.Genlib.t) -> l.Cell.Genlib.name = name)
        Cell.Genlib.all_libraries
    in
    let registered =
      List.exists
        (fun (l : Cell.Genlib.t) -> l.Cell.Genlib.name = name)
        (Cell.Genlib.registered ())
    in
    match (builtin, registered) with
    | _, false -> "built-in"
    | true, true -> "file (shadows built-in)"
    | false, true -> "file"
  in
  let list_cmd =
    (* Unlike the pipeline commands, a broken file on the search path is
       not fatal here: list is the diagnostic surface, so per-file
       outcomes are printed and the exit stays 0. Explicit --library-file
       arguments are still load-or-die. *)
    let run libfiles =
      let discovered = Cell.Libfile.load_search_path () in
      List.iter
        (fun path ->
          match Cell.Libfile.load path with
          | Ok (_, warnings) ->
              List.iter
                (fun w -> Format.eprintf "cntpower: %s: %s@." path w)
                warnings
          | Result.Error e -> R.raise_error e)
        libfiles;
      List.iter
        (fun lib ->
          Format.fprintf std "%-24s %-24s %a@." lib.Cell.Genlib.name
            (origin_of lib) Cell.Genlib.pp_summary lib)
        (Cell.Genlib.libraries ());
      List.iter
        (fun (path, outcome) ->
          match outcome with
          | Ok ((lib : Cell.Genlib.t), _) ->
              Format.fprintf std "# %s: loaded %s@." path lib.Cell.Genlib.name
          | Result.Error e -> Format.fprintf std "# %s: BROKEN — %a@." path R.pp e)
        discovered;
      0
    in
    Cmd.v
      (Cmd.info "list"
         ~doc:
           "List every resolvable library — built-ins, $(b,CNTPOWER_LIBPATH) \
            discoveries (broken files are reported, not fatal) and explicit \
            --library-file loads — with origin and summary.")
      Term.(const run $ library_file_arg)
  in
  let show_cmd =
    let run libfiles name =
      load_library_files libfiles;
      let lib = find_library name in
      Format.fprintf std "# %s [%s]@.# %a@.%s@." lib.Cell.Genlib.name
        (origin_of lib) Cell.Genlib.pp_summary lib
        (Cell.Genlib.to_genlib_string lib);
      0
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Print one library's summary and its genlib rendering (resolves \
            data files exactly like the pipeline commands).")
      Term.(const run $ library_file_arg $ name_pos)
  in
  let validate_cmd =
    let file_pos =
      let doc = "Logic-family file (genlib-plus) to parse and validate." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let run file =
      match Cell.Libfile.load_file file with
      | Ok lib ->
          Format.fprintf std "%s: OK — %a@." file Cell.Genlib.pp_summary lib;
          0
      | Result.Error e -> R.raise_error e
    in
    Cmd.v
      (Cmd.info "validate"
         ~doc:
           "Parse and fully validate one logic-family file without \
            registering it. Exit 0 when the file would load; otherwise the \
            typed error's code (12 syntax, 13 semantics, 24 unreadable) \
            with file/line context.")
      Term.(const run $ file_pos)
  in
  let export_cmd =
    let out_arg =
      let doc = "Write to $(docv) instead of stdout." in
      Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
    in
    let run libfiles name out =
      load_library_files libfiles;
      let lib = find_library name in
      let text = Cell.Libfile.export lib in
      (match out with
      | None -> print_string text
      | Some path -> (
          try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
          with Sys_error m ->
            R.failf ~context:[ ("file", path) ] R.Library R.Io_error "%s" m));
      0
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Render a library as a canonical genlib-plus file — the format \
            `--library-file` loads. The committed data/libraries/*.genlibp \
            copies of the built-ins are exactly this output.")
      Term.(const run $ library_file_arg $ name_pos $ out_arg)
  in
  Cmd.group
    (Cmd.info "library"
       ~doc:
         "Inspect, validate and export logic-family definitions: the three \
          built-ins plus genlib-plus data files loaded via --library-file \
          or $(b,CNTPOWER_LIBPATH).")
    [ list_cmd; show_cmd; validate_cmd; export_cmd ]

let main =
  Cmd.group
    (Cmd.info "cntpower" ~version:"1.1.0"
       ~doc:
         "Power consumption of logic circuits in ambipolar carbon nanotube \
          technology (DATE 2010) - reproduction harness.")
    ((table1_cmd :: experiment_cmds)
    @ [
        synth_cmd; genlib_cmd; check_cmd; all_cmd; campaign_cmd; golden_cmd;
        stats_cmd; trace_cmd; compare_cmd; serve_cmd; request_cmd; metrics_cmd;
        top_cmd; library_cmd;
      ])

(* Every failure leaves through a typed error: Cnt_error carries its own
   exit code; anything else is wrapped (never a bare backtrace). *)
let () =
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception R.Error e ->
      Format.eprintf "cntpower: %a@." R.pp e;
      exit (R.exit_code e)
  | exception exn ->
      let e = R.of_exn ~stage:R.Cli exn in
      Format.eprintf "cntpower: %a@." R.pp e;
      exit (R.exit_code e)
