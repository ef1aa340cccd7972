(* Reading one unit of work out of a shared run: every shard and daemon
   request runs in a worker with a unique name, the journal events of
   that unit name it, and `cntpower trace --request` slices the journal
   and profile by that name alone. *)

module Jn = Runtime.Journal
module T = Runtime.Telemetry
module E = Runtime.Cnt_error
module S = Runtime.Supervisor
module Tr = Runtime.Trace_export
module C = Runtime.Checkpoint
module Cg = Experiments.Campaign

let temp_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Run [f] with the process-wide journal writing to a fresh file and
   return what it recorded; the journal is left closed and disabled. *)
let with_journal f =
  let path = Filename.concat (temp_dir "slicing") "events.jsonl" in
  Jn.set_enabled true;
  Jn.set_verbosity None;
  Fun.protect
    ~finally:(fun () ->
      Jn.close_sink ();
      Jn.set_enabled false;
      Jn.set_verbosity (Some Jn.Info))
    (fun () ->
      E.get_exn (Jn.open_sink ~path ());
      f ();
      Jn.close_sink ();
      match Jn.load ~path with
      | Ok (events, 0) -> events
      | Ok (_, skipped) -> Alcotest.failf "%d torn line(s)" skipped
      | Result.Error e -> Alcotest.failf "load: %s" (E.to_string e))

let names worker e =
  Jn.find e "worker" = Some worker || Jn.find e "shard" = Some worker

let kinds evs = List.map (fun e -> Jn.kind_name e.Jn.ev_kind) evs

(* --- propagation --------------------------------------------------- *)

let worker_events_named () =
  let events =
    with_journal
      (fun () ->
        let job =
          S.spawn ~timeout_s:30.0 ~name:"named" (fun () ->
              Jn.emit ~level:Jn.Debug Jn.Solver_damped_retry [ ("retry", "1") ];
              Unix.getpid ())
        in
        let rec await () =
          match S.wait [ job ] with _, [ (_, r) ] -> r | _ -> await ()
        in
        match await () with
        | Ok _ -> ()
        | Result.Error e -> Alcotest.failf "worker: %s" (E.to_string e))
  in
  let shipped =
    List.filter (fun e -> e.Jn.ev_pid <> Unix.getpid ()) events
  in
  Alcotest.(check (list string)) "the worker's own event came back"
    [ "solver_damped_retry" ] (kinds shipped);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        (Jn.kind_name e.Jn.ev_kind ^ " names the worker")
        (Some "named") (Jn.find e "worker"))
    events;
  List.iter
    (fun k ->
      Alcotest.(check bool) ("no " ^ k ^ " field") true
        (List.for_all (fun e -> Jn.find e k = None) events))
    [ "trace"; "span"; "parent" ]

(* --- slicing ------------------------------------------------------- *)

let leaf name total =
  { T.span_name = name; calls = 1; total_s = total; children = [] }

let ev seq pid kind fields =
  {
    Jn.ev_seq = seq;
    ev_time = 1000.0 +. float_of_int seq;
    ev_pid = pid;
    ev_level = Jn.Debug;
    ev_kind = kind;
    ev_fields = fields;
  }

(* Three serve requests as the daemon journals them: admission and
   completion on the server PID, naming both the request number and the
   worker; the spawn from the pool; work on the worker PID, named when
   the pool shipped it back; the worker's exit with its stage times.
   Request 3 is refused at admission. The profile holds the one
   aggregate the daemon keeps: every request's stages under
   [serve.request]. *)
let serve_fixture () =
  let profile =
    {
      T.p_spans =
        [
          {
            T.span_name = "serve.request";
            calls = 2;
            total_s = 0.4;
            children = [ { (leaf "flow.verify" 0.25) with T.calls = 2 };
                         { (leaf "techmap.map" 0.1) with T.calls = 2 } ];
          };
        ];
      p_counters = [];
      p_dists = [];
    }
  in
  let exited pid verify map =
    [ ("worker", Printf.sprintf "req-%d" (pid - 200)); ("worker_pid", string_of_int pid);
      ("span:flow.verify", verify); ("span:techmap.map", map) ]
  in
  let req n =
    [ ("request", string_of_int n); ("worker", Printf.sprintf "req-%d" n) ]
  in
  let events =
    [
      ev 1 100 Jn.Server_started [ ("workers", "2") ];
      ev 2 100 Jn.Request_admitted (req 1);
      ev 3 100 Jn.Worker_spawned [ ("worker", "req-1"); ("worker_pid", "201") ];
      ev 4 100 Jn.Request_admitted (req 2);
      ev 5 100 Jn.Worker_spawned [ ("worker", "req-2"); ("worker_pid", "202") ];
      ev 6 100 Jn.Request_rejected (req 3 @ [ ("code", "parse-error") ]);
      ev 1 201 Jn.Solver_damped_retry [ ("retry", "1"); ("worker", "req-1") ];
      ev 7 100 Jn.Worker_exited (exited 201 "0.150000" "0.040000");
      ev 8 100 Jn.Request_done (req 1 @ [ ("status", "ok") ]);
      ev 9 100 Jn.Worker_exited (exited 202 "0.100000" "0.060000");
      ev 10 100 Jn.Request_done (req 2 @ [ ("status", "ok") ]);
    ]
  in
  (profile, events)

let slice_selects_one_request () =
  let profile, events = serve_fixture () in
  Alcotest.(check (option string)) "worker name resolves verbatim"
    (Some "req-1") (Tr.resolve ~events "req-1");
  Alcotest.(check (option string)) "request number resolves to its worker"
    (Some "req-2") (Tr.resolve ~events "2");
  Alcotest.(check (option string)) "garbage does not resolve" None
    (Tr.resolve ~events "nope");
  let sliced, evs = Tr.slice ~worker:"req-1" ~events profile in
  Alcotest.(check (list string)) "exactly request 1's events"
    [ "request_admitted"; "worker_spawned"; "solver_damped_retry";
      "worker_exited"; "request_done" ]
    (kinds evs);
  Alcotest.(check bool) "every sliced event names the worker" true
    (List.for_all (names "req-1") evs);
  Alcotest.(check (list string)) "one subtree, rebuilt from the journal"
    [ "req-1" ]
    (List.map (fun (s : T.span) -> s.T.span_name) sliced.T.p_spans);
  let req = List.hd sliced.T.p_spans in
  Alcotest.(check (list (pair string (float 1e-9))))
    "its own stage times, not the aggregate's"
    [ ("flow.verify", 0.15); ("techmap.map", 0.04) ]
    (List.map (fun (s : T.span) -> (s.T.span_name, s.T.total_s)) req.T.children);
  Alcotest.(check (float 1e-9)) "spanning spawn to exit" 4.0 req.T.total_s

let request_numbers_resolve () =
  let profile, events = serve_fixture () in
  let numbers =
    List.sort_uniq compare
      (List.filter_map (fun e -> Jn.find e "request") events)
  in
  Alcotest.(check (list string)) "the journal names three requests"
    [ "1"; "2"; "3" ] numbers;
  List.iter
    (fun n ->
      Alcotest.(check (option string)) ("request " ^ n ^ " resolves")
        (Some ("req-" ^ n)) (Tr.resolve ~events n))
    numbers;
  let _, evs = Tr.slice ~worker:"req-3" ~events profile in
  Alcotest.(check (list string)) "a rejected request slices to its rejection"
    [ "request_rejected" ] (kinds evs)

(* Two shards of a campaign: the queue log's transitions name the shard,
   the pool's spawn names the worker, and its profile is grafted under a
   span of that name. *)
let slice_selects_one_shard () =
  let shard id work =
    { T.span_name = id; calls = 1; total_s = 0.2; children = [ leaf work 0.1 ] }
  in
  let profile =
    {
      T.p_spans =
        [ shard "t481/cmos/42" "map-a"; shard "C1355/cmos/42" "map-b" ];
      p_counters = [];
      p_dists = [];
    }
  in
  let events =
    [
      ev 1 100 Jn.Shard_leased [ ("shard", "t481/cmos/42"); ("attempt", "1") ];
      ev 2 100 Jn.Worker_spawned
        [ ("worker", "t481/cmos/42"); ("worker_pid", "201") ];
      ev 3 100 Jn.Shard_leased [ ("shard", "C1355/cmos/42"); ("attempt", "1") ];
      ev 4 100 Jn.Worker_spawned
        [ ("worker", "C1355/cmos/42"); ("worker_pid", "202") ];
      ev 5 100 Jn.Shard_done [ ("shard", "C1355/cmos/42"); ("attempt", "1") ];
    ]
  in
  let sliced, evs = Tr.slice ~worker:"C1355/cmos/42" ~events profile in
  Alcotest.(check (list string)) "exactly the second shard's subtree"
    [ "C1355/cmos/42" ]
    (List.map (fun (sp : T.span) -> sp.T.span_name) sliced.T.p_spans);
  Alcotest.(check (list string)) "only its lease, spawn and outcome"
    [ "shard_leased"; "worker_spawned"; "shard_done" ] (kinds evs)

(* A real campaign whose shard dies on its first attempt and passes on
   the retry: the shard's slice holds both attempts. *)
let retried_shard_slice () =
  let dir = temp_dir "slicing-runs" in
  let cfg =
    {
      (Cg.default_config ~campaign:"retry") with
      Cg.runs_dir = dir;
      workers = 1;
      max_attempts = 2;
      backoff_initial_s = 0.01;
      backoff_max_s = 0.02;
      inject = { Cg.no_inject with Cg.inj_flaky = [ "flaky" ] };
    }
  in
  let shard id =
    {
      Cg.id;
      seed = 7L;
      patterns = 64;
      run =
        (fun ~degraded:_ ->
          Jn.emit ~level:Jn.Debug Jn.Solver_damped_retry [ ("retry", "1") ];
          [ ("v", 1.0) ]);
    }
  in
  let events =
    with_journal
      (fun () ->
        match Cg.run cfg [ shard "steady"; shard "flaky" ] with
        | Ok s ->
            Alcotest.(check (list string)) "nothing quarantined" []
              (Cg.quarantined s)
        | Result.Error e -> Alcotest.failf "campaign: %s" (E.to_string e))
  in
  Alcotest.(check (option string)) "shard id resolves" (Some "flaky")
    (Tr.resolve ~events "flaky");
  let _, evs =
    Tr.slice ~worker:"flaky" ~events
      { T.p_spans = []; p_counters = []; p_dists = [] }
  in
  let count k = List.length (List.filter (fun e -> e.Jn.ev_kind = k) evs) in
  Alcotest.(check int) "both attempts leased" 2 (count Jn.Shard_leased);
  Alcotest.(check int) "both attempts spawned" 2 (count Jn.Worker_spawned);
  Alcotest.(check int) "the first attempt's death" 1 (count Jn.Worker_killed);
  Alcotest.(check int) "its failure record" 1 (count Jn.Shard_failed);
  Alcotest.(check int) "the retry's own event" 1 (count Jn.Solver_damped_retry);
  Alcotest.(check int) "the retry's outcome" 1 (count Jn.Shard_done);
  Alcotest.(check bool) "nothing of the other shard" true
    (List.for_all (fun e -> not (names "steady" e)) evs)

let trace_export_anchors_worker_track () =
  let profile, events = serve_fixture () in
  let sliced, evs = Tr.slice ~worker:"req-1" ~events profile in
  let trace_events =
    match Tr.to_trace ~events:evs sliced with
    | C.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (C.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents")
    | _ -> Alcotest.fail "not an object"
  in
  let field name ev =
    match ev with C.Obj fields -> List.assoc_opt name fields | _ -> None
  in
  (* The request's span subtree lands on the worker's PID track, as
     anchored by its worker_spawned event. *)
  (match
     List.find_opt
       (fun ev ->
         field "ph" ev = Some (C.Str "X")
         && field "name" ev = Some (C.Str "req-1"))
       trace_events
   with
  | None -> Alcotest.fail "request span missing from chrome trace"
  | Some ev ->
      Alcotest.(check bool) "anchored on the worker PID track" true
        (field "pid" ev = Some (C.Num 201.0)));
  Alcotest.(check bool) "its stages ride the same track" true
    (List.exists
       (fun ev ->
         field "name" ev = Some (C.Str "flow.verify")
         && field "pid" ev = Some (C.Num 201.0))
       trace_events);
  let instants =
    List.filter (fun ev -> field "ph" ev = Some (C.Str "i")) trace_events
  in
  Alcotest.(check int) "only the request's instants" 5 (List.length instants)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "slicing"
    [
      ( "propagation",
        [ tc "worker events carry the worker name" worker_events_named ] );
      ( "slicing",
        [
          tc "slice selects exactly one request" slice_selects_one_request;
          tc "slice selects exactly one shard" slice_selects_one_shard;
          tc "chrome trace anchors the worker track"
            trace_export_anchors_worker_track;
          tc "a retried shard's slice holds every attempt" retried_shard_slice;
          tc "every request number resolves" request_numbers_resolve;
        ] );
    ]
