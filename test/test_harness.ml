(* Experiments.Harness semantics: Keep_going vs Strict, exit codes,
   typed failure capture, scalar recording, checkpoint persistence and
   resume. Entries run in-process (policy = None) so the tests exercise
   harness logic, not fork plumbing (test_supervisor covers that). *)

module H = Experiments.Harness
module E = Runtime.Cnt_error
module C = Runtime.Checkpoint

let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let ok_entry name scalars =
  H.entry name ("doc " ^ name) (fun ~degraded:_ _ppf -> scalars)

let failing_entry name =
  H.entry name "always raises" (fun ~degraded:_ _ppf -> failwith "boom")

let typed_failing_entry name =
  H.entry name "raises a typed error" (fun ~degraded:_ _ppf ->
      E.failf E.Spice E.Convergence_failure "solver exhausted")

let config mode = { H.default_config with H.mode }

let status s name =
  match List.assoc_opt name s.H.results with
  | Some st -> st
  | None -> Alcotest.failf "no result for %s" name

let keep_going_runs_everything () =
  let s =
    H.run_all ~config:(config H.Keep_going) null
      [ failing_entry "bad"; ok_entry "good" [ ("v", 7.0) ] ]
  in
  (match status s "bad" with
  | H.Failed { error; _ } ->
      Alcotest.(check string) "typed internal failure" "internal"
        (E.code_name error.E.code);
      Alcotest.(check bool) "experiment context attached" true
        (List.mem ("experiment", "bad") error.E.context)
  | _ -> Alcotest.fail "bad must fail");
  (match status s "good" with
  | H.Passed { scalars; degraded; attempts; _ } ->
      Alcotest.(check (list (pair string (float 0.0))))
        "scalars recorded" [ ("v", 7.0) ] scalars;
      Alcotest.(check bool) "not degraded" false degraded;
      Alcotest.(check int) "one attempt" 1 attempts
  | _ -> Alcotest.fail "good must pass after a failure in keep-going mode");
  Alcotest.(check bool) "not aborted" false s.H.aborted;
  Alcotest.(check int) "one failure collected" 1 (List.length (H.failures s));
  Alcotest.(check int) "exit 10" 10 (H.exit_status s)

let strict_aborts_and_skips () =
  let s =
    H.run_all ~config:(config H.Strict) null
      [
        ok_entry "first" [];
        typed_failing_entry "second";
        ok_entry "third" [];
      ]
  in
  (match status s "first" with
  | H.Passed _ -> ()
  | _ -> Alcotest.fail "first must pass");
  (match status s "second" with
  | H.Failed { error; _ } ->
      Alcotest.(check string) "typed error preserved" "convergence-failure"
        (E.code_name error.E.code)
  | _ -> Alcotest.fail "second must fail");
  (match status s "third" with
  | H.Skipped -> ()
  | _ -> Alcotest.fail "third must be skipped after a strict abort");
  Alcotest.(check bool) "aborted" true s.H.aborted;
  Alcotest.(check int) "exit 11" 11 (H.exit_status s)

let all_pass_exit_zero () =
  let s =
    H.run_all ~config:(config H.Strict) null
      [ ok_entry "a" []; ok_entry "b" [ ("x", 1.0) ] ]
  in
  Alcotest.(check int) "exit 0" 0 (H.exit_status s);
  Alcotest.(check int) "no failures" 0 (List.length (H.failures s))

let summary_renders_all_statuses () =
  let s =
    H.run_all ~config:(config H.Keep_going) null
      [ ok_entry "fine" []; failing_entry "broken" ]
  in
  let text = Format.asprintf "%a" H.print_summary s in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pass line" true (contains "ok      fine");
  Alcotest.(check bool) "failure line" true (contains "FAILED  broken");
  Alcotest.(check bool) "counts" true (contains "1 passed, 1 failed")

let with_run_dir f =
  let dir = Filename.temp_file "cntpower-harness" "" in
  Sys.remove dir;
  f (Filename.concat dir "manifest.json")

let checkpoint_and_resume () =
  with_run_dir @@ fun path ->
  let base =
    {
      H.default_config with
      H.manifest_path = Some path;
      run_name = "t";
      seed = 7L;
      patterns = 64;
    }
  in
  let ran = ref [] in
  let tracked name scalars =
    H.entry name "tracked" (fun ~degraded:_ _ppf ->
        ran := name :: !ran;
        scalars)
  in
  let s1 =
    H.run_all ~config:base null
      [ tracked "alpha" [ ("a", 1.0) ]; failing_entry "beta" ]
  in
  Alcotest.(check int) "first run exits 10" 10 (H.exit_status s1);
  (* The manifest survived the run and recorded both outcomes. *)
  let m = Result.get_ok (C.load ~path) in
  Alcotest.(check bool) "alpha passed on disk" true
    ((Option.get (C.find m "alpha")).C.status = C.Passed);
  let beta = Option.get (C.find m "beta") in
  Alcotest.(check bool) "beta failed on disk" true (beta.C.status = C.Failed);
  Alcotest.(check bool) "failure text recorded" true (beta.C.error <> None);
  (* Resume: alpha is skipped, beta re-runs (now passing). *)
  ran := [];
  let s2 =
    H.run_all
      ~config:{ base with H.resume = true }
      null
      [ tracked "alpha" [ ("a", 1.0) ]; tracked "beta" [ ("b", 2.0) ] ]
  in
  Alcotest.(check (list string)) "only beta re-ran" [ "beta" ] !ran;
  (match status s2 "alpha" with
  | H.Resumed en ->
      Alcotest.(check (list (pair string (float 0.0))))
        "resumed entry carries the stored scalars" [ ("a", 1.0) ] en.C.scalars
  | _ -> Alcotest.fail "alpha must resume from the manifest");
  Alcotest.(check int) "resumed run exits 0" 0 (H.exit_status s2);
  let m2 = Result.get_ok (C.load ~path) in
  Alcotest.(check bool) "beta now passed on disk" true
    ((Option.get (C.find m2 "beta")).C.status = C.Passed)

let resume_keyed_on_workload () =
  with_run_dir @@ fun path ->
  let base =
    {
      H.default_config with
      H.manifest_path = Some path;
      seed = 7L;
      patterns = 64;
    }
  in
  let (_ : H.summary) = H.run_all ~config:base null [ ok_entry "alpha" [] ] in
  (* Different pattern count -> the stored pass is stale, re-run. *)
  let s =
    H.run_all
      ~config:{ base with H.resume = true; patterns = 128 }
      null
      [ ok_entry "alpha" [] ]
  in
  (match status s "alpha" with
  | H.Passed _ -> ()
  | _ -> Alcotest.fail "changed workload must not resume");
  (* Same workload resumes. *)
  let s' =
    H.run_all
      ~config:{ base with H.resume = true; patterns = 128 }
      null
      [ ok_entry "alpha" [] ]
  in
  match status s' "alpha" with
  | H.Resumed _ -> ()
  | _ -> Alcotest.fail "identical workload must resume"

let corrupt_manifest_restarts () =
  with_run_dir @@ fun path ->
  Result.get_ok
    (C.save ~path (C.empty ~run_name:"x"))
  |> ignore;
  let oc = open_out path in
  output_string oc "not json at all";
  close_out oc;
  let s =
    H.run_all
      ~config:
        { H.default_config with H.manifest_path = Some path; resume = true }
      null
      [ ok_entry "alpha" [] ]
  in
  (match status s "alpha" with
  | H.Passed _ -> ()
  | _ -> Alcotest.fail "corrupt manifest must re-run, not crash");
  (* And the manifest was rewritten with the fresh result. *)
  let m = Result.get_ok (C.load ~path) in
  Alcotest.(check bool) "manifest repaired" true (C.find m "alpha" <> None)

let supervised_crash_isolated () =
  (* End to end through the harness with a real forked worker: a worker
     that SIGKILLs itself fails typed; the harness and the other entries
     survive. *)
  let config =
    {
      H.default_config with
      H.policy = Some { Runtime.Supervisor.timeout_s = 30.0; retries = 0 };
    }
  in
  let s =
    H.run_all ~config null
      [
        H.entry "crash" "kills its worker" (fun ~degraded:_ _ppf ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            []);
        ok_entry "after" [ ("ok", 1.0) ];
      ]
  in
  (match status s "crash" with
  | H.Failed { error; _ } ->
      Alcotest.(check string) "worker death typed" "worker-killed"
        (E.code_name error.E.code)
  | _ -> Alcotest.fail "crash entry must fail");
  (match status s "after" with
  | H.Passed _ -> ()
  | _ -> Alcotest.fail "subsequent entry must still run");
  Alcotest.(check int) "exit 10" 10 (H.exit_status s)

let () =
  Alcotest.run "harness"
    [
      ( "semantics",
        [
          Alcotest.test_case "keep-going collects failures" `Quick
            keep_going_runs_everything;
          Alcotest.test_case "strict aborts and skips" `Quick
            strict_aborts_and_skips;
          Alcotest.test_case "all pass exits 0" `Quick all_pass_exit_zero;
          Alcotest.test_case "summary rendering" `Quick
            summary_renders_all_statuses;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "checkpoint and resume" `Quick checkpoint_and_resume;
          Alcotest.test_case "resume keyed on workload" `Quick
            resume_keyed_on_workload;
          Alcotest.test_case "corrupt manifest restarts" `Quick
            corrupt_manifest_restarts;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "crash isolated end to end" `Quick
            supervised_crash_isolated;
        ] );
    ]
