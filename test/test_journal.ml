(* Event journal: per-PID sequence ordering, JSONL round-trips, corrupt
   and torn-line recovery, worker event capture across a real fork, the
   disabled-mode no-op guarantee, and Chrome trace export built on top
   of journal + telemetry. *)

module Jn = Runtime.Journal
module T = Runtime.Telemetry
module C = Runtime.Checkpoint
module E = Runtime.Cnt_error
module S = Runtime.Supervisor
module Tr = Runtime.Trace_export

let temp_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Every test owns the process-wide journal: start clean, leave clean,
   and never echo to the test harness's stderr. *)
let fresh f () =
  Jn.set_enabled true;
  Jn.set_verbosity None;
  Fun.protect
    ~finally:(fun () ->
      Jn.close_sink ();
      Jn.set_enabled false;
      Jn.set_verbosity (Some Jn.Info))
    f

(* One job of the pool, waited for. *)
let run_job ?(timeout_s = 30.0) ~name f =
  let job = S.spawn ~timeout_s ~name f in
  let rec await () =
    match S.wait [ job ] with _, [ (_, r) ] -> r | _ -> await ()
  in
  await ()

let load_ok path =
  match Jn.load ~path with
  | Ok r -> r
  | Result.Error e -> Alcotest.failf "load: %s" (E.to_string e)

(* --- disabled mode ------------------------------------------------- *)

let disabled_is_noop () =
  Jn.set_enabled false;
  let dir = temp_dir "journal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "events.jsonl" in
      (* With the journal disabled, emit must not create or write the
         sink — there is no sink to open in the first place, and the
         guarded call sites never build their field lists. *)
      Jn.emit Jn.Run_started [ ("run", "ghost") ];
      Jn.begin_capture ();
      Jn.emit Jn.Worker_spawned [ ("worker", "ghost") ];
      Alcotest.(check (list pass)) "no events captured" [] (Jn.end_capture ());
      Alcotest.(check bool) "no file written" false (Sys.file_exists path))

let disabled_zero_alloc () =
  Jn.set_enabled false;
  Jn.emit Jn.Run_started [];
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Jn.emit Jn.Worker_spawned []
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled emit allocates nothing (saw %.0f words)"
       allocated)
    true
    (allocated < 100.0)

(* --- sink and ordering --------------------------------------------- *)

let seq_is_monotonic =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          Jn.emit Jn.Run_started [ ("run", "t") ];
          Jn.emit ~level:Jn.Debug Jn.Worker_spawned [ ("worker", "a") ];
          Jn.emit ~level:Jn.Warn Jn.Worker_timeout [ ("worker", "a") ];
          Jn.emit Jn.Run_finished [];
          Jn.close_sink ();
          let events, skipped = load_ok path in
          Alcotest.(check int) "no skips" 0 skipped;
          Alcotest.(check int) "all four lines" 4 (List.length events);
          let seqs = List.map (fun e -> e.Jn.ev_seq) events in
          Alcotest.(check bool) "per-PID seq strictly increasing" true
            (List.sort_uniq compare seqs = seqs);
          List.iter
            (fun e ->
              Alcotest.(check int) "all from this process" (Unix.getpid ())
                e.Jn.ev_pid)
            events;
          let kinds = List.map (fun e -> e.Jn.ev_kind) events in
          Alcotest.(check bool) "file order is emission order" true
            (kinds
            = [
                Jn.Run_started;
                Jn.Worker_spawned;
                Jn.Worker_timeout;
                Jn.Run_finished;
              ])))

let fields_and_levels_survive =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          Jn.emit ~level:Jn.Warn Jn.Golden_drift
            [
              ("experiment", "table1");
              ("metric", "p_avg_uw");
              ("expected", "1.25");
            ];
          Jn.close_sink ();
          let events, _ = load_ok path in
          let e = List.hd events in
          Alcotest.(check bool) "level survives" true (e.Jn.ev_level = Jn.Warn);
          Alcotest.(check (option string)) "field survives" (Some "p_avg_uw")
            (Jn.find e "metric");
          Alcotest.(check (option string)) "absent field" None
            (Jn.find e "nope")))

let custom_kind_forward_compat () =
  (* Unknown event names from a future version parse as Custom, not a
     journal-wide failure. *)
  Alcotest.(check bool) "unknown name wraps" true
    (Jn.kind_of_name "frobnicated" = Jn.Custom "frobnicated");
  Alcotest.(check string) "custom round-trips" "frobnicated"
    (Jn.kind_name (Jn.Custom "frobnicated"));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" (Jn.kind_name k))
        true
        (Jn.kind_of_name (Jn.kind_name k) = k))
    [
      Jn.Run_started; Jn.Run_finished; Jn.Worker_spawned; Jn.Worker_exited;
      Jn.Worker_timeout; Jn.Worker_killed; Jn.Checkpoint_written;
      Jn.Solver_damped_retry; Jn.Golden_drift; Jn.Shard_done;
    ]

(* --- corrupt-journal recovery -------------------------------------- *)

let corrupt_lines_are_skipped =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          Jn.emit Jn.Run_started [ ("run", "t") ];
          Jn.emit Jn.Run_finished [];
          Jn.close_sink ();
          (* Interleave garbage and tear the final line, as a kill -9
             mid-write would. The cache_hit line is a kind older builds
             wrote and this one no longer knows: it is an event, not a
             bad line. *)
          let good = In_channel.with_open_text path In_channel.input_all in
          let lines = String.split_on_char '\n' (String.trim good) in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (List.nth lines 0);
              output_string oc "\nnot json at all\n";
              output_string oc
                "{\"seq\":2,\"t\":1.0,\"pid\":7,\"level\":\"info\",\
                 \"event\":\"cache_hit\",\"fields\":{\"cache\":\"matchlib\"}}\n";
              output_string oc "{\"seq\": \"wrong type\"}\n";
              output_string oc (List.nth lines 1);
              output_string oc "\n{\"seq\":3,\"t\":1.0,\"pi");
          let events, skipped = load_ok path in
          Alcotest.(check int) "all three good lines recovered" 3
            (List.length events);
          Alcotest.(check int) "three bad lines counted" 3 skipped;
          Alcotest.(check bool) "order of survivors intact" true
            (List.map (fun e -> e.Jn.ev_kind) events
            = [ Jn.Run_started; Jn.Custom "cache_hit"; Jn.Run_finished ])))

(* A process killed mid-write leaves a final line without its newline.
   Reopening the sink must end that line first, or the next event merges
   into it and is lost to every reader. *)
let append_after_torn_tail =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          Jn.emit Jn.Run_finished [ ("run", "before") ];
          Jn.close_sink ();
          Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o644 path
            (fun oc -> output_string oc "{\"seq\":2,\"t\":1.0,\"pi");
          E.get_exn (Jn.open_sink ~path ());
          Jn.emit Jn.Run_started [ ("run", "after") ];
          Jn.close_sink ();
          let events, skipped = load_ok path in
          Alcotest.(check int) "only the torn line is skipped" 1 skipped;
          Alcotest.(check (list string)) "the event after the tear survives"
            [ "before"; "after" ]
            (List.filter_map (fun e -> Jn.find e "run") events)))

let load_missing_is_typed () =
  match Jn.load ~path:"/nonexistent/events.jsonl" with
  | Ok _ -> Alcotest.fail "loaded a journal from nowhere"
  | Result.Error e ->
      Alcotest.(check bool) "typed io error" true (e.E.code = E.Io_error)

(* --- forked-worker capture ----------------------------------------- *)

let worker_events_merge =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          let parent_pid = Unix.getpid () in
          Jn.emit Jn.Run_started [ ("run", "fork") ];
          let worker_pid =
            match
              run_job ~name:"journal-fork" (fun () ->
                  (* Inside the worker the supervisor has switched the
                     journal to capture mode: these events buffer in
                     memory and ride the result pipe back to the parent. *)
                  Jn.emit ~level:Jn.Debug Jn.Worker_spawned
                    [ ("worker", "journal-fork") ];
                  Unix.getpid ())
            with
            | Ok pid -> pid
            | Result.Error e ->
                Alcotest.failf "worker failed: %s" (E.to_string e)
          in
          Jn.emit Jn.Run_finished [];
          Jn.close_sink ();
          Alcotest.(check bool) "worker really was a fork" true
            (worker_pid <> parent_pid);
          let events, skipped = load_ok path in
          Alcotest.(check int) "merged file parses clean" 0 skipped;
          let from pid =
            List.filter (fun e -> e.Jn.ev_pid = pid) events
          in
          let worker_events = from worker_pid in
          Alcotest.(check bool) "worker event crossed the pipe" true
            (List.exists
               (fun e -> e.Jn.ev_kind = Jn.Worker_spawned)
               worker_events);
          (* The parent narrates the supervision around it. *)
          let parent_kinds =
            List.map (fun e -> e.Jn.ev_kind) (from parent_pid)
          in
          Alcotest.(check bool) "parent logged the spawn" true
            (List.mem Jn.Worker_spawned parent_kinds);
          Alcotest.(check bool) "parent logged the clean exit" true
            (List.mem Jn.Worker_exited parent_kinds);
          (* Provenance: each PID's seq is strictly increasing even though
             the file interleaves two processes. *)
          List.iter
            (fun pid ->
              let seqs = List.map (fun e -> e.Jn.ev_seq) (from pid) in
              Alcotest.(check bool)
                (Printf.sprintf "pid %d seq strictly increasing" pid)
                true
                (List.sort_uniq compare seqs = seqs))
            [ parent_pid; worker_pid ]))

let timeout_is_journaled =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          let result =
            run_job ~timeout_s:0.2 ~name:"sleeper" (fun () -> Unix.sleep 30)
          in
          Jn.close_sink ();
          (match result with
          | Ok _ -> Alcotest.fail "sleeper should have timed out"
          | Result.Error e ->
              Alcotest.(check bool) "typed timeout" true
                (e.E.code = E.Worker_timeout));
          let events, _ = load_ok path in
          let timeout =
            List.find_opt
              (fun e -> e.Jn.ev_kind = Jn.Worker_timeout)
              events
          in
          match timeout with
          | None -> Alcotest.fail "no worker_timeout event journaled"
          | Some e ->
              Alcotest.(check (option string)) "names the worker"
                (Some "sleeper") (Jn.find e "worker")))

(* --- trace export -------------------------------------------------- *)

let trace_fixture () =
  let leaf name total =
    { T.span_name = name; calls = 1; total_s = total; children = [] }
  in
  let profile =
    {
      T.p_spans =
        [
          {
            T.span_name = "exp1";
            calls = 1;
            total_s = 0.3;
            children = [ leaf "solve" 0.2; leaf "map" 0.05 ];
          };
          leaf "exp2" 0.1;
        ];
      p_counters = [ ("solves", 12) ];
      p_dists = [];
    }
  in
  let ev seq pid kind fields =
    {
      Jn.ev_seq = seq;
      ev_time = 1000.0 +. float_of_int seq;
      ev_pid = pid;
      ev_level = Jn.Debug;
      ev_kind = kind;
      ev_fields = fields;
    }
  in
  let spawned seq worker pid =
    ev seq 100 Jn.Worker_spawned
      [ ("worker", worker); ("worker_pid", string_of_int pid) ]
  in
  let events =
    [
      ev 1 100 Jn.Run_started [ ("run", "t") ];
      spawned 2 "exp1" 200;
      spawned 3 "exp2" 300;
      ev 4 100 Jn.Run_finished [];
    ]
  in
  (profile, events)

let trace_events json =
  match json with
  | C.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (C.Arr evs) -> evs
      | _ -> Alcotest.fail "trace has no traceEvents array")
  | _ -> Alcotest.fail "trace is not an object"

let field_str ev name =
  match ev with
  | C.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (C.Str s) -> Some s
      | _ -> None)
  | _ -> None

(* The PID track a span's complete event was laid on. *)
let pid_of evs name =
  List.find_map
    (fun e ->
      match (field_str e "ph", field_str e "name", e) with
      | Some "X", Some n, C.Obj fields when n = name -> (
          match List.assoc_opt "pid" fields with
          | Some (C.Num p) -> Some (int_of_float p)
          | _ -> None)
      | _ -> None)
    evs

let trace_is_wellformed () =
  let profile, events = trace_fixture () in
  let trace = Tr.to_trace ~events profile in
  (* The whole trace must survive a render/reparse cycle: Chrome and
     Perfetto are strict JSON parsers. *)
  let reparsed =
    match C.json_of_string (C.json_to_string_compact trace) with
    | Ok j -> j
    | Result.Error e -> Alcotest.failf "reparse: %s" (E.to_string e)
  in
  let evs = trace_events reparsed in
  let phases =
    List.filter_map (fun e -> field_str e "ph") evs
  in
  Alcotest.(check bool) "has duration events" true (List.mem "X" phases);
  Alcotest.(check bool) "has instant events" true (List.mem "i" phases);
  Alcotest.(check bool) "has process metadata" true (List.mem "M" phases);
  (* Every span of the profile appears as a complete event. *)
  let names = List.filter_map (fun e -> field_str e "name") evs in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span exported") true (List.mem n names))
    [ "exp1"; "solve"; "map"; "exp2" ];
  (* Shards land on the PID track of the worker their worker_spawned
     event names, giving one lane per worker in the viewer. *)
  Alcotest.(check (option int)) "exp1 on its worker track" (Some 200)
    (pid_of evs "exp1");
  Alcotest.(check (option int)) "exp2 on its worker track" (Some 300)
    (pid_of evs "exp2")

let trace_anchors_returning_attempt () =
  (* A retried shard's span holds only the attempt that returned its
     profile, so it is laid on the retry's worker track. *)
  let profile, events = trace_fixture () in
  let retry =
    {
      (List.nth events 1) with
      Jn.ev_seq = 5;
      ev_time = 1005.0;
      ev_fields = [ ("worker", "exp1"); ("worker_pid", "250") ];
    }
  in
  let evs = trace_events (Tr.to_trace ~events:(events @ [ retry ]) profile) in
  Alcotest.(check (option int)) "exp1 on the retry's track" (Some 250)
    (pid_of evs "exp1")

let trace_without_events () =
  (* A run profiled without journaling still exports: everything lays out
     sequentially on one synthetic track. *)
  let profile, _ = trace_fixture () in
  let trace = Tr.to_trace profile in
  let evs = trace_events trace in
  Alcotest.(check bool) "spans still exported" true
    (List.exists (fun e -> field_str e "name" = Some "exp1") evs)

let trace_save_roundtrip () =
  let dir = temp_dir "trace" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let profile, events = trace_fixture () in
      let path = Filename.concat dir "trace.json" in
      E.get_exn (Tr.save ~path ~events profile);
      let text = In_channel.with_open_text path In_channel.input_all in
      match C.json_of_string text with
      | Ok j ->
          Alcotest.(check bool) "file parses to a trace" true
            (trace_events j <> [])
      | Result.Error e -> Alcotest.failf "saved trace unparseable: %s"
            (E.to_string e))

(* --- size-based rotation ------------------------------------------- *)

let emit_n n =
  for i = 1 to n do
    Jn.emit ~level:Jn.Debug Jn.Checkpoint_written
      [ ("path", Printf.sprintf "padding-to-make-the-line-longer-%04d" i) ]
  done

let rotation_preserves_events =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          (* A limit small enough to force a handful of rotations but a
             keep budget large enough that nothing is evicted: every
             event must survive, in emission order, across segments. *)
          E.get_exn (Jn.open_sink ~max_bytes:2048 ~keep:50 ~path ());
          emit_n 200;
          Jn.close_sink ();
          Alcotest.(check bool) "rotated at least once" true
            (Sys.file_exists (path ^ ".1"));
          let events, skipped = load_ok path in
          Alcotest.(check int) "no torn lines across segments" 0 skipped;
          Alcotest.(check int) "every event survives rotation" 200
            (List.length events);
          let seqs = List.map (fun e -> e.Jn.ev_seq) events in
          Alcotest.(check bool)
            "segments concatenate oldest-first (seq increasing)" true
            (List.sort_uniq compare seqs = seqs)))

let rotation_evicts_past_keep =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~max_bytes:1024 ~keep:2 ~path ());
          emit_n 300;
          Jn.close_sink ();
          Alcotest.(check bool) ".1 kept" true (Sys.file_exists (path ^ ".1"));
          Alcotest.(check bool) ".2 kept" true (Sys.file_exists (path ^ ".2"));
          Alcotest.(check bool) ".3 evicted" false
            (Sys.file_exists (path ^ ".3"));
          (* The retained window still loads clean and stays ordered —
             the oldest events are gone, not mangled. *)
          let events, skipped = load_ok path in
          Alcotest.(check int) "retained segments parse clean" 0 skipped;
          Alcotest.(check bool) "something was evicted" true
            (List.length events < 300);
          let seqs = List.map (fun e -> e.Jn.ev_seq) events in
          Alcotest.(check bool) "retained window is contiguous" true
            (match seqs with
            | [] -> false
            | first :: _ ->
                seqs = List.init (List.length seqs) (fun i -> first + i))))

let no_rotation_without_limit =
  fresh (fun () ->
      let dir = temp_dir "journal" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let path = Filename.concat dir "events.jsonl" in
          E.get_exn (Jn.open_sink ~path ());
          emit_n 200;
          Jn.close_sink ();
          Alcotest.(check bool) "no segment without max_bytes" false
            (Sys.file_exists (path ^ ".1"));
          let events, _ = load_ok path in
          Alcotest.(check int) "single file holds everything" 200
            (List.length events)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "journal"
    [
      ( "disabled",
        [
          tc "disabled journal is a no-op" disabled_is_noop;
          tc "disabled emit does not allocate" disabled_zero_alloc;
        ] );
      ( "ordering",
        [
          tc "sequence numbers are monotonic" seq_is_monotonic;
          tc "fields and levels survive the file" fields_and_levels_survive;
          tc "unknown kinds parse as custom" custom_kind_forward_compat;
        ] );
      ( "recovery",
        [
          tc "corrupt and torn lines are skipped" corrupt_lines_are_skipped;
          tc "an append after a torn tail survives" append_after_torn_tail;
          tc "load of missing file is typed" load_missing_is_typed;
        ] );
      ( "fork",
        [
          tc "worker events merge through the pipe" worker_events_merge;
          tc "timeouts are journaled" timeout_is_journaled;
        ] );
      ( "rotation",
        [
          tc "rotation preserves order across segments"
            rotation_preserves_events;
          tc "keep budget evicts oldest segments" rotation_evicts_past_keep;
          tc "no limit, no rotation" no_rotation_without_limit;
        ] );
      ( "trace",
        [
          tc "trace JSON is well-formed" trace_is_wellformed;
          tc "a retried experiment anchors on its last start"
            trace_anchors_returning_attempt;
          tc "trace works without a journal" trace_without_events;
          tc "trace save/parse round-trip" trace_save_roundtrip;
        ] );
    ]
