(* Supervisor and checkpoint layer: worker isolation, watchdog, the
   campaign runner's retry with degradation, manifest durability,
   golden-gate comparisons. *)

module E = Runtime.Cnt_error
module S = Runtime.Supervisor
module C = Runtime.Checkpoint
module Cg = Experiments.Campaign

let code = Alcotest.testable (Fmt.of_to_string E.code_name) ( = )

(* One job of the pool, waited for. *)
let run_job ?(timeout_s = 30.0) f =
  let job = S.spawn ~timeout_s ~name:"test" f in
  let rec await () =
    match S.wait [ job ] with _, [ (_, r) ] -> r | _ -> await ()
  in
  await ()

let errcode = function
  | Ok _ -> Alcotest.fail "expected a failed job"
  | Result.Error e -> e.E.code

(* --- supervisor ---------------------------------------------------- *)

let worker_roundtrip () =
  Alcotest.(check (list (pair string (float 0.0))))
    "scalars cross the process boundary"
    [ ("x", 1.5); ("y", 2.0) ]
    (match run_job (fun () -> [ ("x", 1.5); ("y", 2.0) ]) with
    | Ok v -> v
    | Result.Error _ -> [])


let worker_sigkill () =
  Alcotest.check code "signal death is Worker_killed" E.Worker_killed
    (errcode
       (run_job (fun () ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            [])))

let worker_nonzero_exit () =
  Alcotest.check code "nonzero exit is Worker_killed" E.Worker_killed
    (errcode (run_job (fun () -> Unix._exit 3)))

let worker_timeout () =
  let t0 = Unix.gettimeofday () in
  Alcotest.check code "watchdog fires as Worker_timeout" E.Worker_timeout
    (errcode
       (run_job ~timeout_s:0.4 (fun () ->
            Unix.sleep 30;
            [])));
  Alcotest.(check bool) "the hung worker was killed promptly" true
    (Unix.gettimeofday () -. t0 < 10.0)

(* Retry policy lives in the campaign runner: one shard, [max_attempts]
   attempts, results read off the summary. *)
let run_shard ~max_attempts run =
  let runs_dir = Filename.temp_file "cntpower-retry" "" in
  Sys.remove runs_dir;
  let cfg =
    {
      (Cg.default_config ~campaign:"retry") with
      Cg.runs_dir;
      workers = 1;
      shard_timeout_s = 30.0;
      max_attempts;
      backoff_initial_s = 0.01;
      backoff_max_s = 0.02;
    }
  in
  match Cg.run cfg [ { Cg.id = "job"; seed = 42L; patterns = 1; run } ] with
  | Ok { Cg.results = [ (_, outcome) ]; leases; _ } -> (outcome, leases)
  | Ok _ -> Alcotest.fail "expected one result"
  | Result.Error e -> Alcotest.failf "run failed: %s" (E.to_string e)

let worker_exception_typed () =
  Alcotest.check code "Failure becomes a typed internal error" E.Internal
    (errcode (run_job (fun () -> failwith "boom in worker")));
  match run_shard ~max_attempts:3 (fun ~degraded:_ -> failwith "boom") with
  | Cg.Quarantined e, leases ->
      Alcotest.check code "quarantined with the typed error" E.Internal
        e.E.code;
      Alcotest.(check int) "deterministic failures are not retried" 1 leases
  | _ -> Alcotest.fail "expected the shard to be quarantined"

let degraded_retry_recovers () =
  (* First attempt dies; the retry runs with ~degraded:true and succeeds. *)
  match
    run_shard ~max_attempts:2 (fun ~degraded ->
        if not degraded then Unix.kill (Unix.getpid ()) Sys.sigkill;
        [ ("recovered", 1.0) ])
  with
  | Cg.Done { attempts; degraded; _ }, leases ->
      Alcotest.(check int) "two attempts" 2 attempts;
      Alcotest.(check int) "two leases" 2 leases;
      Alcotest.(check bool) "tagged degraded" true degraded
  | _ -> Alcotest.fail "expected the degraded retry to succeed"

let retry_budget_bounded () =
  match
    run_shard ~max_attempts:3 (fun ~degraded:_ ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        [])
  with
  | Cg.Quarantined e, leases ->
      Alcotest.check code "still Worker_killed after the budget"
        E.Worker_killed e.E.code;
      Alcotest.(check int) "max_attempts attempts" 3 leases
  | _ -> Alcotest.fail "expected the shard to be quarantined"

let refused_fork_is_typed () =
  (* OCaml 5 refuses [Unix.fork] once a domain has been spawned, so the
     domain is spawned in a child of the test process, which reports
     through its exit code: 0 only for a typed, unretried error. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Domain.join (Domain.spawn (fun () -> ()));
      let code =
        match run_shard ~max_attempts:2 (fun ~degraded:_ -> []) with
        | Cg.Quarantined e, 1 when not (S.retryable e) -> 0
        | _ -> 1
        | exception _ -> 2
      in
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED 1 -> Alcotest.fail "no typed, unretried error"
      | Unix.WEXITED 2 -> Alcotest.fail "the refused fork raised"
      | _ -> Alcotest.fail "the child died abnormally")

let retryable_classes () =
  Alcotest.(check bool) "timeout retryable" true
    (S.retryable (E.make E.Experiment E.Worker_timeout ""));
  Alcotest.(check bool) "killed retryable" true
    (S.retryable (E.make E.Experiment E.Worker_killed ""));
  Alcotest.(check bool) "internal not retryable" false
    (S.retryable (E.make E.Experiment E.Internal ""));
  Alcotest.(check bool) "convergence not retryable" false
    (S.retryable (E.make E.Spice E.Convergence_failure ""))

(* --- checkpoint manifest ------------------------------------------- *)

let tmpdir () = Filename.temp_file "cntpower-ckpt" "" |> fun f ->
  Sys.remove f;
  f

let sample_manifest () =
  let e1 =
    C.entry ~experiment:"tgate" ~seed:42L ~patterns:1024 ~wall_time:0.5
      ~attempts:1 ~status:C.Passed
      [ ("n_configs", 8.0); ("max_drop", 0.11) ]
  in
  let e2 =
    C.entry ~experiment:"table1" ~seed:42L ~patterns:1024 ~wall_time:9.0
      ~attempts:2 ~status:C.Degraded [ ("p_avg_uw", 1.25) ]
  in
  { C.run_name = "test"; created = 0.0; entries = [ e1; e2 ] }

let manifest_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "manifest.json" in
  let m = sample_manifest () in
  (match C.save ~path m with
  | Ok () -> ()
  | Result.Error e -> Alcotest.failf "save failed: %s" (E.to_string e));
  match C.load ~path with
  | Result.Error e -> Alcotest.failf "load failed: %s" (E.to_string e)
  | Ok m' ->
      Alcotest.(check string) "run name" m.C.run_name m'.C.run_name;
      Alcotest.(check int) "entry count" 2 (List.length m'.C.entries);
      let e1 = Option.get (C.find m' "tgate") in
      Alcotest.(check (list (pair string (float 1e-12))))
        "scalars survive the round trip"
        [ ("n_configs", 8.0); ("max_drop", 0.11) ]
        e1.C.scalars;
      Alcotest.(check string) "digest preserved"
        (C.digest_scalars e1.C.scalars) e1.C.digest;
      let e2 = Option.get (C.find m' "table1") in
      Alcotest.(check bool) "degraded status survives" true
        (e2.C.status = C.Degraded);
      Alcotest.(check int) "attempts survive" 2 e2.C.attempts

let corrupt_manifest_is_typed () =
  let dir = tmpdir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "bad.json" in
  let oc = open_out path in
  output_string oc "{ \"run\": \"x\", \"entries\": [ { bogus ";
  close_out oc;
  (match C.load ~path with
  | Ok _ -> Alcotest.fail "corrupt JSON must not load"
  | Result.Error e ->
      Alcotest.check code "typed parse error" E.Parse_error e.E.code);
  match C.load ~path:(Filename.concat dir "absent.json") with
  | Ok _ -> Alcotest.fail "missing file must not load"
  | Result.Error e -> Alcotest.check code "typed io error" E.Io_error e.E.code

let json_parser_accepts_escapes () =
  match C.json_of_string "{\"a\\n\\\"b\": [1, -2.5e3, true, null, \"\\u0041\"]}" with
  | Result.Error e -> Alcotest.failf "parse failed: %s" (E.to_string e)
  | Ok (C.Obj [ (key, C.Arr [ C.Num a; C.Num b; C.Bool true; C.Null; C.Str s ]) ]) ->
      Alcotest.(check string) "escaped key" "a\n\"b" key;
      Alcotest.(check (float 0.0)) "int" 1.0 a;
      Alcotest.(check (float 0.0)) "exp" (-2500.0) b;
      Alcotest.(check string) "unicode escape" "A" s
  | Ok _ -> Alcotest.fail "unexpected shape"

(* --- golden gate --------------------------------------------------- *)

let golden_pass_and_drift () =
  let m = sample_manifest () in
  let golden = C.golden_of_manifest ~rtol:0.1 ~experiments:[ "tgate" ] m in
  Alcotest.(check int) "other experiments excluded" 2 (List.length golden);
  let exact =
    List.find (fun g -> g.C.g_metric = "n_configs") golden
  in
  Alcotest.(check (float 0.0)) "integral metrics pinned exactly" 0.0
    exact.C.g_rtol;
  Alcotest.(check int) "clean manifest passes" 0
    (List.length (C.check_golden m golden));
  (* Within tolerance: max_drop 0.11 -> 0.115 at rtol 0.1 passes. *)
  let with_tgate scalars =
    {
      m with
      C.entries =
        C.entry ~experiment:"tgate" ~seed:42L ~patterns:1024 ~wall_time:0.5
          ~attempts:1 ~status:C.Passed scalars
        :: List.tl m.C.entries;
    }
  in
  let nudged = with_tgate [ ("n_configs", 8.0); ("max_drop", 0.115) ] in
  Alcotest.(check int) "drift inside rtol passes" 0
    (List.length (C.check_golden nudged golden));
  (* Outside tolerance on the float, and any change on the exact count. *)
  let drifted = with_tgate [ ("n_configs", 9.0); ("max_drop", 0.2) ] in
  Alcotest.(check int) "both metrics drift" 2
    (List.length (C.check_golden drifted golden));
  (* A golden metric with no manifest entry is a drift with no actual. *)
  let missing = C.check_golden { m with C.entries = [] } golden in
  Alcotest.(check int) "missing entries drift" 2 (List.length missing);
  List.iter
    (fun d -> Alcotest.(check bool) "no actual value" true (d.C.d_actual = None))
    missing

let golden_file_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "golden.json" in
  let golden = C.golden_of_manifest (sample_manifest ()) in
  (match C.save_golden ~path golden with
  | Ok () -> ()
  | Result.Error e -> Alcotest.failf "save failed: %s" (E.to_string e));
  match C.load_golden ~path with
  | Result.Error e -> Alcotest.failf "load failed: %s" (E.to_string e)
  | Ok golden' ->
      Alcotest.(check int) "metric count" (List.length golden)
        (List.length golden');
      List.iter2
        (fun g g' ->
          Alcotest.(check string) "metric name" g.C.g_metric g'.C.g_metric;
          Alcotest.(check (float 0.0)) "value exact" g.C.g_value g'.C.g_value;
          Alcotest.(check (float 0.0)) "rtol exact" g.C.g_rtol g'.C.g_rtol)
        golden golden'

let () =
  Alcotest.run "supervisor"
    [
      ( "supervisor",
        [
          Alcotest.test_case "worker result roundtrip" `Quick worker_roundtrip;
          Alcotest.test_case "exception becomes typed error" `Quick
            worker_exception_typed;
          Alcotest.test_case "SIGKILL is Worker_killed" `Quick worker_sigkill;
          Alcotest.test_case "nonzero exit is Worker_killed" `Quick
            worker_nonzero_exit;
          Alcotest.test_case "watchdog timeout" `Quick worker_timeout;
          Alcotest.test_case "degraded retry recovers" `Quick
            degraded_retry_recovers;
          Alcotest.test_case "retry budget bounded" `Quick retry_budget_bounded;
          Alcotest.test_case "refused fork is a typed error" `Quick
            refused_fork_is_typed;
          Alcotest.test_case "retryable classes" `Quick retryable_classes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "manifest roundtrip" `Quick manifest_roundtrip;
          Alcotest.test_case "corrupt manifest typed" `Quick
            corrupt_manifest_is_typed;
          Alcotest.test_case "json escapes" `Quick json_parser_accepts_escapes;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pass and drift" `Quick golden_pass_and_drift;
          Alcotest.test_case "file roundtrip" `Quick golden_file_roundtrip;
        ] );
    ]
