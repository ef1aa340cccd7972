(* The campaign runner as `cntpower all` uses it: keep-going vs strict,
   exit codes, typed failure capture, the rendered summary, resume keyed
   on the workload, and a worker that kills itself. *)

module W = Runtime.Workqueue
module E = Runtime.Cnt_error
module C = Runtime.Checkpoint
module Cg = Experiments.Campaign
module M = Runtime.Metrics

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" E.pp e

let temp_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let shard id run = { Cg.id; key = ""; seed = 7L; patterns = 64; run }
let ok_shard id scalars = shard id (fun ~degraded:_ -> scalars)
let failing_shard id = shard id (fun ~degraded:_ -> failwith "boom")

let typed_failing_shard id =
  shard id (fun ~degraded:_ ->
      E.failf E.Spice E.Convergence_failure "solver exhausted")

let all_cfg ?(strict = false) runs_dir =
  {
    (Cg.default_config ~campaign:"all") with
    Cg.runs_dir;
    workers = 1;
    max_attempts = 2;
    backoff_initial_s = 0.01;
    backoff_max_s = 0.02;
    strict;
  }

let outcome s id =
  match List.assoc_opt id s.Cg.results with
  | Some o -> o
  | None -> Alcotest.failf "no result for %s" id

let keep_going_runs_everything () =
  let cfg = all_cfg (temp_dir "all-runs") in
  let s =
    ok (Cg.run cfg [ failing_shard "bad"; ok_shard "good" [ ("v", 7.0) ] ])
  in
  (match outcome s "bad" with
  | Cg.Quarantined error ->
      Alcotest.(check string) "typed internal failure" "internal"
        (E.code_name error.E.code);
      Alcotest.(check bool) "shard context attached" true
        (List.mem ("shard", "bad") error.E.context)
  | _ -> Alcotest.fail "bad must fail");
  (match outcome s "good" with
  | Cg.Done { degraded; attempts; _ } ->
      Alcotest.(check bool) "not degraded" false degraded;
      Alcotest.(check int) "one attempt" 1 attempts
  | _ -> Alcotest.fail "good must pass after a failure in keep-going mode");
  let m = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check (list (pair string (float 0.0))))
    "scalars recorded" [ ("v", 7.0) ]
    (Option.get (C.find m "good")).C.scalars;
  Alcotest.(check int) "one failure collected" 1
    (List.length (Cg.quarantined s));
  Alcotest.(check int) "exit 10" 10 (Cg.exit_status cfg s)

let strict_aborts_and_skips () =
  let cfg = all_cfg ~strict:true (temp_dir "all-runs") in
  let s =
    ok
      (Cg.run cfg
         [ ok_shard "first" []; typed_failing_shard "second"; ok_shard "third" [] ])
  in
  (match outcome s "first" with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "first must pass");
  (match outcome s "second" with
  | Cg.Quarantined error ->
      Alcotest.(check string) "typed error preserved" "convergence-failure"
        (E.code_name error.E.code)
  | _ -> Alcotest.fail "second must fail");
  (match outcome s "third" with
  | Cg.Skipped -> ()
  | _ -> Alcotest.fail "third must be skipped after a strict stop");
  Alcotest.(check int) "third never leased" 2 s.Cg.leases;
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  Alcotest.(check int) "third holds no lease in the log" 0 (W.attempts wq "third");
  W.close wq;
  Alcotest.(check int) "exit 11" 11 (Cg.exit_status cfg s)

let all_pass_exit_zero () =
  let cfg = all_cfg ~strict:true (temp_dir "all-runs") in
  let s = ok (Cg.run cfg [ ok_shard "a" []; ok_shard "b" [ ("x", 1.0) ] ]) in
  Alcotest.(check int) "exit 0" 0 (Cg.exit_status cfg s);
  Alcotest.(check int) "no failures" 0 (List.length (Cg.quarantined s))

let summary_renders_all_statuses () =
  let cfg = all_cfg (temp_dir "all-runs") in
  let s = ok (Cg.run cfg [ ok_shard "fine" []; failing_shard "broken" ]) in
  let text = Format.asprintf "%a" Cg.print_results s in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pass line" true (contains "ok      fine");
  Alcotest.(check bool) "failure line" true (contains "FAILED  broken");
  Alcotest.(check bool) "failure names its shard" true (contains "shard=broken");
  Alcotest.(check bool) "counts" true (contains "1 passed, 1 failed")

(* The live echo of a done shard names the shard and its wall time; the
   result scalars stay in the queue record and the journal event. *)
let done_echo_is_short () =
  let cfg = all_cfg (temp_dir "all-runs") in
  let path = Filename.temp_file "stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  let flush_err () =
    Format.pp_print_flush Format.err_formatter ();
    flush stderr
  in
  flush_err ();
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Runtime.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Runtime.Journal.set_enabled false;
      flush_err ();
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    (fun () ->
      let scalars = [ ("total_uW", 2.25); ("edp", 7.0) ] in
      ignore (ok (Cg.run cfg [ ok_shard "one" scalars ])));
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"journal: shard_done")
  in
  match lines with
  | [ line ] ->
      let words = String.split_on_char ' ' line in
      Alcotest.(check bool) ("no s: field in " ^ line) false
        (List.exists (String.starts_with ~prefix:"s:") words);
      Alcotest.(check (list string)) "shard and attempt, then wall time"
        [ "journal:"; "shard_done"; "one"; "attempt=1" ]
        (List.filteri (fun i _ -> i < 4) words);
      Alcotest.(check int) "nothing after the wall time" 5 (List.length words)
  | _ ->
      Alcotest.failf "expected one shard_done echo, got %d" (List.length lines)

let checkpoint_and_resume () =
  let cfg = all_cfg (temp_dir "all-runs") in
  let s1 = ok (Cg.run cfg [ ok_shard "alpha" [ ("a", 1.0) ]; failing_shard "beta" ]) in
  Alcotest.(check int) "first run exits 10" 10 (Cg.exit_status cfg s1);
  (* The manifest holds the passed shard only; the failure is in the log. *)
  let m = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check bool) "alpha passed on disk" true
    ((Option.get (C.find m "alpha")).C.status = C.Passed);
  Alcotest.(check bool) "no manifest entry for beta" true (C.find m "beta" = None);
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  Alcotest.(check bool) "beta quarantined in the log" true
    (W.state wq "beta" = Some W.Quarantined);
  Alcotest.(check bool) "failure text recorded" true
    (List.mem_assoc "error" (W.fields wq "beta"));
  W.close wq;
  (* Resume: alpha is skipped, beta re-runs (now passing). *)
  let s2 =
    ok
      (Cg.run { cfg with Cg.resume = true }
         [ ok_shard "alpha" [ ("a", 1.0) ]; ok_shard "beta" [ ("b", 2.0) ] ])
  in
  Alcotest.(check int) "only beta re-ran" 1 s2.Cg.leases;
  (match outcome s2 "alpha" with
  | Cg.Resumed -> ()
  | _ -> Alcotest.fail "alpha must resume from the queue log");
  Alcotest.(check int) "resumed run exits 0" 0 (Cg.exit_status cfg s2);
  let m2 = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check (list (pair string (float 0.0))))
    "resumed entry keeps the stored scalars" [ ("a", 1.0) ]
    (Option.get (C.find m2 "alpha")).C.scalars;
  Alcotest.(check bool) "beta now passed on disk" true
    ((Option.get (C.find m2 "beta")).C.status = C.Passed)

let resume_keyed_on_workload () =
  let cfg = { (all_cfg (temp_dir "all-runs")) with Cg.resume = true } in
  let alpha patterns =
    { (ok_shard "alpha" []) with Cg.key = string_of_int patterns; patterns }
  in
  ignore (ok (Cg.run cfg [ alpha 64 ]));
  (* Different pattern count -> the stored pass is stale, re-run. *)
  (match outcome (ok (Cg.run cfg [ alpha 128 ])) "alpha" with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "changed workload must not resume");
  (* Same workload resumes. *)
  (match outcome (ok (Cg.run cfg [ alpha 128 ])) "alpha" with
  | Cg.Resumed -> ()
  | _ -> Alcotest.fail "identical workload must resume");
  let m = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check int) "manifest labels the workload that ran" 128
    (Option.get (C.find m "alpha")).C.patterns

(* `all`'s seq shard: every shard of a run has its seed and patterns,
   so only the key tells 500 cycles from 10 000. *)
let resume_keyed_beyond_seed_and_patterns () =
  let cfg = { (all_cfg (temp_dir "all-runs")) with Cg.resume = true } in
  let seq cycles =
    { (ok_shard "seq" []) with Cg.key = Printf.sprintf "seed 7, workload %d" cycles }
  in
  ignore (ok (Cg.run cfg [ seq 500 ]));
  match outcome (ok (Cg.run cfg [ seq 10_000 ])) "seq" with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "another workload at the same seed and patterns must run again"

let corrupt_manifest_rerendered () =
  let cfg = all_cfg (temp_dir "all-runs") in
  ignore (ok (Cg.run cfg [ ok_shard "alpha" [ ("a", 1.0) ] ]));
  let oc = open_out (Cg.manifest_path cfg) in
  output_string oc "not json at all";
  close_out oc;
  let s = ok (Cg.run { cfg with Cg.resume = true } [ ok_shard "alpha" [ ("a", 1.0) ] ]) in
  (match outcome s "alpha" with
  | Cg.Resumed -> ()
  | _ -> Alcotest.fail "a corrupt manifest must not cost the queue's result");
  let m = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check bool) "manifest repaired" true (C.find m "alpha" <> None)

(* The log's last record for [held] is a lease this very PID holds, as
   when a restarted coordinator runs as PID 1 again: resume runs it. *)
let own_lease_resumes_to_done () =
  let cfg = all_cfg (temp_dir "all-runs") in
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  ignore (W.enqueue wq "held");
  ignore (W.lease wq "held");
  W.close wq;
  let s = ok (Cg.run { cfg with Cg.resume = true } [ ok_shard "held" [ ("v", 1.0) ] ]) in
  (match outcome s "held" with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "a lease left in the log must not skip its shard");
  Alcotest.(check int) "the lease was reclaimed" 1 s.Cg.reclaimed;
  Alcotest.(check int) "exit 0" 0 (Cg.exit_status cfg s);
  let m = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check bool) "held in the manifest" true (C.find m "held" <> None)

let supervised_crash_isolated () =
  (* A worker that SIGKILLs itself fails typed once its attempts are
     spent; the runner and the other shards survive. *)
  let cfg = { (all_cfg (temp_dir "all-runs")) with Cg.max_attempts = 1 } in
  let s =
    ok
      (Cg.run cfg
         [
           shard "crash" (fun ~degraded:_ ->
               Unix.kill (Unix.getpid ()) Sys.sigkill;
               []);
           ok_shard "after" [ ("ok", 1.0) ];
         ])
  in
  (match outcome s "crash" with
  | Cg.Quarantined error ->
      Alcotest.(check string) "worker death typed" "worker-killed"
        (E.code_name error.E.code)
  | _ -> Alcotest.fail "crash shard must fail");
  (match outcome s "after" with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "subsequent shard must still run");
  Alcotest.(check int) "exit 10" 10 (Cg.exit_status cfg s)

(* --only picks shards by id or by the id's first '/' component, keeps
   shard order, and refuses a name that picks nothing. *)
let only_selects_by_one_rule () =
  let shards =
    List.map
      (fun id -> ok_shard id [])
      [ "t481/cmos/42"; "alu4/cmos/42"; "t481/ptl/42"; "patterns" ]
  in
  let ids r = List.map (fun (sh : Cg.shard) -> sh.Cg.id) (ok r) in
  Alcotest.(check (list string))
    "shard order, not name order"
    [ "t481/cmos/42"; "t481/ptl/42"; "patterns" ]
    (ids (Cg.select ~only:[ "patterns"; "t481" ] shards));
  Alcotest.(check (list string))
    "a full id picks one shard" [ "alu4/cmos/42" ]
    (ids (Cg.select ~only:[ "alu4/cmos/42" ] shards));
  Alcotest.(check int) "no names, every shard" 4
    (List.length (ids (Cg.select ~only:[] shards)));
  match Cg.select ~only:[ "patterns"; "nosuch" ] shards with
  | Ok _ -> Alcotest.fail "a name that selects nothing must be refused"
  | Error e ->
      Alcotest.(check int) "usage error, exit 13" 13 (E.exit_code e);
      Alcotest.(check (option string)) "names the culprit" (Some "nosuch")
        (List.assoc_opt "only" e.E.context)

(* A flaky shard fails once and passes on its retry; the coordinator's
   numbers land in metrics.json as gauges, with no failed shard left. *)
let flaky_shard_metrics_are_gauges () =
  let cfg =
    {
      (all_cfg (temp_dir "all-runs")) with
      Cg.inject = { Cg.no_inject with Cg.inj_flaky = [ "flaky" ] };
    }
  in
  let s = ok (Cg.run cfg [ ok_shard "steady" []; ok_shard "flaky" [] ]) in
  (match outcome s "flaky" with
  | Cg.Done { attempts = 2; degraded = true; _ } -> ()
  | _ -> Alcotest.fail "flaky must pass degraded on its second attempt");
  let m =
    ok
      (M.load
         ~path:(Cg.run_file ~runs_dir:cfg.Cg.runs_dir "all" "metrics.json"))
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option (float 0.0))) ("gauge " ^ k) (Some v)
        (List.assoc_opt k m.M.m_gauges))
    [
      ("campaign.done", 2.0);
      ("campaign.failed", 0.0);
      ("campaign.quarantined", 0.0);
      ("campaign.completed", 2.0);
      ("campaign.leases", 3.0);
      ("campaign.reclaimed", 0.0);
      ("campaign.resumed", 0.0);
    ];
  Alcotest.(check bool) "no campaign counter" false
    (List.exists
       (fun (k, _) -> String.starts_with ~prefix:"campaign." k)
       m.M.m_counters)

let () =
  Alcotest.run "runner"
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
          Alcotest.test_case "done echo leaves out the scalars" `Quick
            done_echo_is_short;
          Alcotest.test_case "only selects by one rule" `Quick
            only_selects_by_one_rule;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "checkpoint and resume" `Quick checkpoint_and_resume;
          Alcotest.test_case "resume keyed on workload" `Quick
            resume_keyed_on_workload;
          Alcotest.test_case "same seed and patterns, new workload re-runs" `Quick
            resume_keyed_beyond_seed_and_patterns;
          Alcotest.test_case "corrupt manifest is re-rendered" `Quick
            corrupt_manifest_rerendered;
          Alcotest.test_case "a lease this PID holds resumes to done" `Quick
            own_lease_resumes_to_done;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "crash isolated end to end" `Quick
            supervised_crash_isolated;
          Alcotest.test_case "flaky shard, metrics as gauges" `Quick
            flaky_shard_metrics_are_gauges;
        ] );
    ]
