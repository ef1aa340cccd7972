(* Campaign durability: the workqueue write-ahead log survives torn
   lines and dead lease owners, and the campaign runner survives poison
   shards (quarantine) and a SIGKILLed coordinator (resume re-runs only
   what is not recorded done). *)

module W = Runtime.Workqueue
module E = Runtime.Cnt_error
module C = Runtime.Checkpoint
module Cg = Experiments.Campaign
module G = Cell.Genlib

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
    circuits = [ small_entry "mult8"; small_entry "ham8" ];
    libraries = [ G.cmos ];
    seeds = [ 42L ];
    patterns = 256;
    workers = 2;
    shard_timeout_s = 120.0;
    max_attempts = 2;
    backoff_initial_s = 0.05;
    backoff_max_s = 0.2;
  }

let done_records path shard =
  let records, _ = ok (W.load ~path) in
  List.filter
    (fun r -> r.W.rc_shard = shard && r.W.rc_state = W.Done)
    records
  |> List.length

let test_campaign_fresh_and_resume () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"fresh" ~runs_dir in
  let s = ok (Cg.run cfg) in
  Alcotest.(check int) "two shards in the grid" 2 s.Cg.total;
  Alcotest.(check int) "both completed" 2 s.Cg.completed;
  Alcotest.(check int) "nothing resumed on a fresh run" 0 s.Cg.resumed;
  Alcotest.(check (list string)) "nothing quarantined" [] s.Cg.quarantined;
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
  (* Resuming a finished campaign re-runs nothing. *)
  let s = ok (Cg.run { cfg with Cg.resume = true }) in
  Alcotest.(check int) "resume completes nothing new" 0 s.Cg.completed;
  Alcotest.(check int) "resume counts both shards as done" 2 s.Cg.resumed;
  List.iter
    (fun sh ->
      Alcotest.(check int)
        (sh.Cg.sh_id ^ " ran exactly once")
        1
        (done_records (Cg.queue_path cfg) sh.Cg.sh_id))
    (Cg.enumerate cfg)

let test_campaign_poison_quarantine () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg =
    {
      (test_cfg ~campaign:"poison" ~runs_dir) with
      Cg.inject = { Cg.no_inject with Cg.inj_crash = [ "mult8" ] };
    }
  in
  let poison = "mult8/cmos/42" in
  let s = ok (Cg.run cfg) in
  Alcotest.(check (list string))
    "poison shard quarantined" [ poison ] s.Cg.quarantined;
  Alcotest.(check int) "healthy shard still completed" 1 s.Cg.completed;
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
      match Cg.run cfg with
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
  let s = ok (Cg.run cfg) in
  Alcotest.(check int) "one shard survived the kill as done" 1 s.Cg.resumed;
  Alcotest.(check int) "the other shard re-ran" 1 s.Cg.completed;
  Alcotest.(check (list string)) "nothing quarantined" [] s.Cg.quarantined;
  let manifest = ok (C.load ~path:(Cg.manifest_path cfg)) in
  List.iter
    (fun sh ->
      Alcotest.(check bool)
        (sh.Cg.sh_id ^ " in the manifest after resume")
        true
        (C.find manifest sh.Cg.sh_id <> None);
      Alcotest.(check int)
        (sh.Cg.sh_id ^ " executed exactly once")
        1
        (done_records (Cg.queue_path cfg) sh.Cg.sh_id))
    (Cg.enumerate cfg)

let test_campaign_manifest_is_queue_view () =
  let runs_dir = temp_dir "campaign-runs" in
  let cfg = test_cfg ~campaign:"view" ~runs_dir in
  ignore (ok (Cg.run cfg));
  (* Leave the manifest holding an entry the queue log does not record
     as done, and a done shard's scalar that disagrees with its record. *)
  let path = Cg.manifest_path cfg in
  let m = ok (C.load ~path) in
  let stray =
    C.entry ~experiment:"c17/cmos/42" ~seed:42L ~patterns:256 ~wall_time:1.0
      ~attempts:1 ~status:C.Passed [ ("total_uW", 1.0) ]
  in
  let tampered =
    let e = Option.get (C.find m "ham8/cmos/42") in
    { e with C.scalars = List.map (fun (k, _) -> (k, 0.0)) e.C.scalars }
  in
  ok (C.save ~path (C.add (C.add m stray) tampered));
  ignore (ok (Cg.run { cfg with Cg.resume = true }));
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
  let bits =
    Alcotest.testable Fmt.float (fun a b ->
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  let m = ok (C.load ~path) in
  Alcotest.(check (list (pair string (list (pair string bits)))))
    "manifest equals the queue's done records, bit for bit" queue_view
    (List.map (fun (e : C.entry) -> (e.C.experiment, e.C.scalars)) m.C.entries)

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
          Alcotest.test_case "coordinator SIGKILL, resume without re-runs"
            `Quick test_campaign_sigkill_resume;
          Alcotest.test_case "resume renders the manifest from the queue"
            `Quick test_campaign_manifest_is_queue_view;
        ] );
    ]
