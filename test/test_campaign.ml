(* Campaign durability: the workqueue write-ahead log survives torn
   lines and dead lease owners, and the campaign runner survives poison
   shards (quarantine) and a SIGKILLed coordinator (resume re-runs only
   what is not recorded done for the same workload). *)

module W = Runtime.Workqueue
module E = Runtime.Cnt_error
module C = Runtime.Checkpoint
module Cg = Experiments.Campaign
module G = Cell.Genlib
module T = Runtime.Telemetry
module T1 = Experiments.Exp_table1

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" E.pp e

let temp_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* ------------------------------------------------------------------ *)
(* Workqueue log                                                       *)

let test_wq_roundtrip () =
  let path = Filename.concat (temp_dir "wq") "queue.jsonl" in
  let wq, skipped = ok (W.open_ ~path) in
  Alcotest.(check int) "fresh log skips nothing" 0 skipped;
  Alcotest.(check bool) "new shard enqueues" true (W.enqueue wq "a");
  Alcotest.(check bool) "re-enqueue is a no-op" false (W.enqueue wq "a");
  ignore (W.enqueue wq "b");
  ignore (W.enqueue wq "c");
  Alcotest.(check int) "first lease is attempt 1" 1 (W.lease wq "a" ~ttl_s:60.);
  W.mark_done wq "a" ~fields:[ ("wall_s", "1.5"); ("s:total_uW", "2.25") ];
  ignore (W.lease wq "b" ~ttl_s:60.);
  W.mark_failed wq "b" ~fields:[ ("error", "boom") ];
  W.close wq;
  let wq, skipped = ok (W.open_ ~path) in
  Alcotest.(check int) "clean log replays without skips" 0 skipped;
  Alcotest.(check (list string))
    "first-enqueue order preserved" [ "a"; "b"; "c" ] (W.shards wq);
  Alcotest.(check bool) "a replays done" true (W.state wq "a" = Some W.Done);
  Alcotest.(check (option string))
    "done fields survive replay" (Some "2.25")
    (List.assoc_opt "s:total_uW" (W.fields wq "a"));
  Alcotest.(check bool) "b replays failed" true (W.state wq "b" = Some W.Failed);
  Alcotest.(check int) "b consumed one attempt" 1 (W.attempts wq "b");
  Alcotest.(check (list string))
    "failed and enqueued shards are ready" [ "b"; "c" ] (W.ready wq);
  Alcotest.(check int) "re-lease is attempt 2" 2 (W.lease wq "b" ~ttl_s:60.);
  W.close wq

let test_wq_torn_lines () =
  let path = Filename.concat (temp_dir "wq") "queue.jsonl" in
  let wq, _ = ok (W.open_ ~path) in
  ignore (W.enqueue wq "a");
  ignore (W.lease wq "a" ~ttl_s:60.);
  W.mark_done wq "a" ~fields:[ ("wall_s", "0.5") ];
  ignore (W.enqueue wq "b");
  W.close wq;
  (* Simulate a crash mid-append: one garbage line, then a record torn
     short of its newline. *)
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  output_string oc "this is not json\n";
  output_string oc "{\"t\": 12.5, \"shard\": \"tor";
  close_out oc;
  let wq, skipped = ok (W.open_ ~path) in
  Alcotest.(check int) "both corrupt lines skipped" 2 skipped;
  Alcotest.(check bool) "a still done" true (W.state wq "a" = Some W.Done);
  Alcotest.(check bool) "b still enqueued" true (W.state wq "b" = Some W.Enqueued);
  (* Appending after a torn final line must not merge into it. *)
  ignore (W.enqueue wq "c");
  W.close wq;
  let records, skipped = ok (W.load ~path) in
  Alcotest.(check int) "skip count stable after reopen" 2 skipped;
  Alcotest.(check bool) "record appended after torn line parses" true
    (List.exists
       (fun r -> r.W.rc_shard = "c" && r.W.rc_state = W.Enqueued)
       records)

let test_wq_stale_leases () =
  let path = Filename.concat (temp_dir "wq") "queue.jsonl" in
  let wq, _ = ok (W.open_ ~path) in
  ignore (W.enqueue wq "expired");
  ignore (W.lease wq "expired" ~ttl_s:(-1.0));
  ignore (W.enqueue wq "held");
  ignore (W.lease wq "held" ~ttl_s:3600.);
  ignore (W.enqueue wq "orphan");
  W.close wq;
  (* A coordinator in another process takes a lease and dies holding it. *)
  (match Unix.fork () with
  | 0 ->
      let wq, _ = ok (W.open_ ~path) in
      ignore (W.lease wq "orphan" ~ttl_s:3600.);
      W.close wq;
      Unix._exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  let wq, _ = ok (W.open_ ~path) in
  let stale = W.stale_leases wq ~now:(Unix.gettimeofday ()) in
  Alcotest.(check (list string))
    "expired ttl and dead owner are stale, live own lease is not"
    [ "expired"; "orphan" ]
    (List.sort compare stale);
  W.close wq

(* ------------------------------------------------------------------ *)
(* Campaign runs                                                       *)

let small_entry name =
  List.find
    (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name = name)
    Circuits.Suite.small

let test_cfg ~campaign ~runs_dir =
  {
    (Cg.default_config ~campaign) with
    Cg.runs_dir;
    workers = 2;
    shard_timeout_s = 120.0;
    max_attempts = 2;
    backoff_initial_s = 0.05;
    backoff_max_s = 0.2;
  }

let test_grid ?(patterns = 256) () =
  Cg.grid
    ~circuits:[ small_entry "mult8"; small_entry "ham8" ]
    ~libraries:[ G.cmos ] ~seeds:[ 42L ] ~patterns

let ids shards = List.map (fun (sh : Cg.shard) -> sh.Cg.id) shards

let count p (s : Cg.summary) =
  List.length (List.filter (fun (_, o) -> p o) s.Cg.results)

let completed = count (function Cg.Done _ -> true | _ -> false)
let resumed = count (function Cg.Resumed -> true | _ -> false)

let done_records path shard =
  let records, _ = ok (W.load ~path) in
  List.filter
    (fun r -> r.W.rc_shard = shard && r.W.rc_state = W.Done)
    records
  |> List.length

let bits =
  Alcotest.testable Fmt.float (fun a b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_campaign_fresh_and_resume () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"fresh" ~runs_dir in
  let s = ok (Cg.run cfg (test_grid ())) in
  Alcotest.(check int) "two shards in the grid" 2 (List.length s.Cg.results);
  Alcotest.(check int) "both completed" 2 (completed s);
  Alcotest.(check int) "nothing resumed on a fresh run" 0 (resumed s);
  Alcotest.(check (list string)) "nothing quarantined" [] (Cg.quarantined s);
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check int) "manifest has one entry per shard" 2
    (List.length manifest.C.entries);
  List.iter
    (fun (e : C.entry) ->
      Alcotest.(check bool)
        (e.C.experiment ^ " passed") true
        (e.C.status = C.Passed);
      match List.assoc_opt "total_uW" e.C.scalars with
      | Some v -> Alcotest.(check bool) "total power positive" true (v > 0.0)
      | None -> Alcotest.fail "manifest entry missing total_uW")
    manifest.C.entries;
  (* A second run without resume must not discard the durable record. *)
  (match Cg.run cfg (test_grid ()) with
  | Ok _ -> Alcotest.fail "an existing queue log must be refused"
  | Error e ->
      Alcotest.(check int) "refused with exit 13" 13 (E.exit_code e);
      Alcotest.(check (option string))
        "names the queue log" (Some (Cg.queue_path cfg))
        (List.assoc_opt "path" e.E.context));
  (* Resuming a finished campaign re-runs nothing. *)
  let s = ok (Cg.run { cfg with Cg.resume = true } (test_grid ())) in
  Alcotest.(check int) "resume completes nothing new" 0 (completed s);
  Alcotest.(check int) "resume counts both shards as done" 2 (resumed s);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (id ^ " ran exactly once")
        1
        (done_records (Cg.queue_path cfg) id))
    (ids (test_grid ()))

let test_campaign_poison_quarantine () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg =
    {
      (test_cfg ~campaign:"poison" ~runs_dir) with
      Cg.inject = { Cg.no_inject with Cg.inj_crash = [ "mult8" ] };
    }
  in
  let poison = "mult8/cmos/42" in
  let s = ok (Cg.run cfg (test_grid ())) in
  Alcotest.(check (list string))
    "poison shard quarantined" [ poison ] (Cg.quarantined s);
  Alcotest.(check int) "healthy shard still completed" 1 (completed s);
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  Alcotest.(check bool) "queue records the quarantine" true
    (W.state wq poison = Some W.Quarantined);
  Alcotest.(check int)
    "every attempt in the budget was consumed" cfg.Cg.max_attempts
    (W.attempts wq poison);
  Alcotest.(check bool) "healthy shard done in the queue" true
    (W.state wq "ham8/cmos/42" = Some W.Done);
  W.close wq;
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  Alcotest.(check bool) "no manifest entry for the poison shard" true
    (C.find manifest poison = None);
  Alcotest.(check bool) "manifest entry for the healthy shard" true
    (C.find manifest "ham8/cmos/42" <> None)

let test_campaign_resume_reruns_quarantined () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg =
    {
      (test_cfg ~campaign:"requeue" ~runs_dir) with
      Cg.inject = { Cg.no_inject with Cg.inj_crash = [ "mult8" ] };
    }
  in
  let poison = "mult8/cmos/42" in
  let s = ok (Cg.run cfg (test_grid ())) in
  Alcotest.(check (list string)) "quarantined" [ poison ] (Cg.quarantined s);
  (* Resume without the injection: the quarantined shard runs again from
     a fresh budget, its first attempt undegraded. *)
  let cfg = { cfg with Cg.resume = true; inject = Cg.no_inject } in
  let s = ok (Cg.run cfg (test_grid ())) in
  Alcotest.(check (list string)) "nothing quarantined" [] (Cg.quarantined s);
  Alcotest.(check int) "one lease" 1 s.Cg.leases;
  (match List.assoc poison s.Cg.results with
  | Cg.Done { attempts; degraded; _ } ->
      Alcotest.(check int) "first attempt of this invocation" 1 attempts;
      Alcotest.(check bool) "undegraded" false degraded
  | _ -> Alcotest.fail "the quarantined shard must end done");
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  Alcotest.(check bool) "done in the queue" true
    (W.state wq poison = Some W.Done);
  W.close wq;
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  match C.find manifest poison with
  | Some e -> Alcotest.(check bool) "passed" true (e.C.status = C.Passed)
  | None -> Alcotest.fail "no manifest entry for the re-run shard"

let test_campaign_resume_new_patterns () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"repattern" ~runs_dir in
  ignore (ok (Cg.run cfg (test_grid ~patterns:256 ())));
  let s =
    ok (Cg.run { cfg with Cg.resume = true } (test_grid ~patterns:512 ()))
  in
  Alcotest.(check int) "every shard re-ran" 2 (completed s);
  Alcotest.(check int) "nothing resumed" 0 (resumed s);
  let fresh = test_cfg ~campaign:"fresh512" ~runs_dir in
  ignore (ok (Cg.run fresh (test_grid ~patterns:512 ())));
  let view cfg =
    List.map
      (fun (e : C.entry) -> (e.C.experiment, (e.C.patterns, e.C.scalars)))
      (ok (C.load ~path:(Cg.manifest_path cfg))).C.entries
  in
  Alcotest.(check (list (pair string (pair int (list (pair string bits))))))
    "resumed manifest equals a fresh 512-pattern run, bit for bit"
    (view fresh) (view cfg)

let test_campaign_sigkill_resume () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg =
    {
      (test_cfg ~campaign:"killed" ~runs_dir) with
      Cg.workers = 1;
      Cg.inject = { Cg.no_inject with Cg.inj_kill_after = Some 1 };
    }
  in
  (* The coordinator SIGKILLs itself right after the first done record
     hits the log — before the manifest write. Run it in a fork so the
     test survives. *)
  (match Unix.fork () with
  | 0 -> (
      match Cg.run cfg (test_grid ()) with
      | _ -> Unix._exit 7
      | exception _ -> Unix._exit 8)
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | st ->
          Alcotest.failf "expected the coordinator to die of SIGKILL, got %s"
            (match st with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s)));
  (* Resume without injection: only the shard not recorded done re-runs. *)
  let cfg = { cfg with Cg.resume = true; Cg.inject = Cg.no_inject } in
  let s = ok (Cg.run cfg (test_grid ())) in
  Alcotest.(check int) "one shard survived the kill as done" 1 (resumed s);
  Alcotest.(check int) "the other shard re-ran" 1 (completed s);
  Alcotest.(check (list string)) "nothing quarantined" [] (Cg.quarantined s);
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " in the manifest after resume")
        true
        (C.find manifest id <> None);
      Alcotest.(check int)
        (id ^ " executed exactly once")
        1
        (done_records (Cg.queue_path cfg) id))
    (ids (test_grid ()))

let test_campaign_manifest_is_queue_view () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"view" ~runs_dir in
  ignore (ok (Cg.run cfg (test_grid ())));
  (* Leave the manifest holding an entry the queue log does not record
     as done, and a done shard's scalar that disagrees with its record. *)
  let path = Cg.manifest_path cfg in
  let m = ok (C.load ~path) in
  let stray =
    C.entry ~experiment:"c17/cmos/42" ~seed:42L ~patterns:256 ~wall_time:1.0
      ~attempts:1 ~status:C.Passed [ ("total_uW", 1.0) ]
  in
  let tamper (e : C.entry) =
    if e.C.experiment <> "ham8/cmos/42" then e
    else { e with C.scalars = List.map (fun (k, _) -> (k, 0.0)) e.C.scalars }
  in
  ok
    (C.save ~path
       { m with C.entries = List.map tamper m.C.entries @ [ stray ] });
  ignore (ok (Cg.run { cfg with Cg.resume = true } (test_grid ())));
  let wq, _ = ok (W.open_ ~path:(Cg.queue_path cfg)) in
  let queue_view =
    List.filter_map
      (fun id ->
        if W.state wq id <> Some W.Done then None
        else
          Some
            ( id,
              List.filter_map
                (fun (k, v) ->
                  if String.length k > 2 && String.sub k 0 2 = "s:" then
                    Some (String.sub k 2 (String.length k - 2), float_of_string v)
                  else None)
                (W.fields wq id) ))
      (W.shards wq)
  in
  W.close wq;
  let m = ok (C.load ~path) in
  Alcotest.(check (list (pair string (list (pair string bits)))))
    "manifest equals the queue's done records, bit for bit" queue_view
    (List.map (fun (e : C.entry) -> (e.C.experiment, e.C.scalars)) m.C.entries)

(* The one run-name rule: a name that would leave [runs_dir] ("..",
   a path) is refused, by the runner and by [validate_run_name], which
   `serve` calls before it writes its journal. *)
let test_run_name_rule () =
  let refused name =
    match Cg.validate_run_name name with
    | Error e -> e.E.code = E.Validation_error
    | Ok () -> false
  in
  List.iter
    (fun name -> Alcotest.(check bool) (Printf.sprintf "%S refused" name) true (refused name))
    [ ""; "."; ".."; "a/b"; "../x"; "/tmp" ];
  List.iter
    (fun name -> Alcotest.(check bool) (Printf.sprintf "%S accepted" name) false (refused name))
    [ "all"; "serve-1700000000"; "..x"; "a.b" ];
  let runs_dir = temp_dir "runname" in
  match Cg.run (test_cfg ~campaign:".." ~runs_dir) (test_grid ()) with
  | Error e -> Alcotest.(check bool) "runner refuses \"..\"" true (e.E.code = E.Validation_error)
  | Ok _ -> Alcotest.fail "the runner accepted run name \"..\""

(* ------------------------------------------------------------------ *)
(* One flow: Table 1 and a campaign shard run the same stages          *)

let mult8_grid ~patterns =
  Cg.grid ~circuits:[ small_entry "mult8" ] ~libraries:[ G.cmos ]
    ~seeds:[ 42L ] ~patterns

(* The profile [f] leaves, with telemetry on from an empty registry. *)
let profiled f =
  T.set_enabled true;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      f ();
      T.snapshot ())

let span_calls (p : T.profile) name =
  List.fold_left
    (fun acc (_, (s : T.span)) ->
      if s.T.span_name = name then acc + s.T.calls else acc)
    0 (T.flatten p.T.p_spans)

let test_flow_verifies_every_table () =
  let p =
    profiled (fun () ->
        ignore (T1.run ~circuits:[ small_entry "mult8" ] ~patterns:256 ()))
  in
  Alcotest.(check int)
    "Table 1 verifies once per match table"
    (List.length (G.libraries ()))
    (span_calls p "flow.verify");
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"verify" ~runs_dir in
  let p = profiled (fun () -> ignore (ok (Cg.run cfg (mult8_grid ~patterns:256)))) in
  Alcotest.(check int) "the shard verifies its one match table" 1
    (span_calls p "flow.verify")

let test_table1_refuses_unverified () =
  match T1.run ~circuits:[ small_entry "mult8" ] ~patterns:64 ~verify:false () with
  | _ -> Alcotest.fail "~verify:false must be refused"
  | exception E.Error e ->
      Alcotest.(check string) "a typed validation error" "validation-error"
        (E.code_name e.E.code)

let test_shard_equals_table1 () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"same" ~runs_dir in
  ignore (ok (Cg.run cfg (mult8_grid ~patterns:4096)));
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  let shard =
    match C.find manifest "mult8/cmos/42" with
    | Some e -> e.C.scalars
    | None -> Alcotest.fail "no manifest entry for mult8/cmos/42"
  in
  let row =
    List.hd
      (T1.run ~circuits:[ small_entry "mult8" ] ~patterns:4096 ~seed:42L ())
        .T1.rows
  in
  let r = List.assoc "cmos" row.T1.results in
  let module Est = Techmap.Estimate in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        k
        (Some (Printf.sprintf "%.17g" v))
        (Option.map (Printf.sprintf "%.17g") (List.assoc_opt k shard)))
    [
      ("gates", float_of_int r.Est.gates);
      ("delay_ps", r.Est.delay *. 1e12);
      ("dynamic_uW", r.Est.dynamic *. 1e6);
      ("static_uW", r.Est.static *. 1e6);
      ("total_uW", r.Est.total *. 1e6);
    ]

let () =
  Alcotest.run "campaign"
    [
      ( "workqueue",
        [
          Alcotest.test_case "roundtrip replay" `Quick test_wq_roundtrip;
          Alcotest.test_case "torn lines" `Quick test_wq_torn_lines;
          Alcotest.test_case "stale leases" `Quick test_wq_stale_leases;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fresh run completes, resume is idempotent"
            `Quick test_campaign_fresh_and_resume;
          Alcotest.test_case "poison shard quarantined, rest complete"
            `Quick test_campaign_poison_quarantine;
          Alcotest.test_case "resume re-runs a quarantined shard" `Quick
            test_campaign_resume_reruns_quarantined;
          Alcotest.test_case "resume at a new pattern count re-runs" `Quick
            test_campaign_resume_new_patterns;
          Alcotest.test_case "coordinator SIGKILL, resume without re-runs"
            `Quick test_campaign_sigkill_resume;
          Alcotest.test_case "resume renders the manifest from the queue"
            `Quick test_campaign_manifest_is_queue_view;
          Alcotest.test_case "run names stay under the runs directory" `Quick
            test_run_name_rule;
        ] );
      ( "flow",
        [
          Alcotest.test_case "Table 1 and a shard verify every table" `Quick
            test_flow_verifies_every_table;
          Alcotest.test_case "shard mult8/cmos/42 equals its Table 1 cell"
            `Quick test_shard_equals_table1;
          Alcotest.test_case "Table 1 refuses ~verify:false" `Quick
            test_table1_refuses_unverified;
        ] );
    ]
