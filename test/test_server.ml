(* The estimation daemon (Runtime.Server): protocol framing, admission
   control, overload shedding, crash isolation, deadlines, the circuit
   breaker and graceful drain — all against a real forked daemon process
   speaking the wire protocol over a Unix socket, with toy handlers so
   the failure modes are deterministic and fast. *)

module Sv = Runtime.Server
module R = Runtime.Cnt_error
module C = Runtime.Checkpoint
module Jn = Runtime.Journal
module T = Runtime.Telemetry
module Mx = Runtime.Metrics

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Toy handlers: the request names its own behavior.                   *)

type job = { mode : string; payload : string; sleep_s : float }

let opt_str json name ~default =
  match Result.bind (C.field json name) (C.as_str name) with
  | Ok s -> s
  | Error _ -> default

let opt_num json name ~default =
  match Result.bind (C.field json name) (C.as_num name) with
  | Ok n -> n
  | Error _ -> default

let handlers =
  {
    Sv.admit =
      (fun json ->
        match Result.bind (C.field json "verb") (C.as_str "verb") with
        | Ok "work" ->
            let mode = opt_str json "mode" ~default:"echo" in
            if mode = "reject" then
              R.error R.Cli R.Validation_error "rejected at admission"
            else
              Ok
                {
                  mode;
                  payload = opt_str json "payload" ~default:"";
                  sleep_s = opt_num json "sleep_s" ~default:0.0;
                }
        | Ok v -> R.error R.Cli R.Validation_error "unknown verb %S" v
        | Error _ as e -> (match e with Error e -> Error e | _ -> assert false));
    execute =
      (fun j ->
        match j.mode with
        | "crash" ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            assert false
        | "hang" ->
            while true do
              Unix.sleepf 3600.0
            done;
            assert false
        | "fail" -> R.error R.Experiment R.Non_finite "synthetic failure"
        | _ ->
            if j.sleep_s > 0.0 then Unix.sleepf j.sleep_s;
            Ok (C.Obj [ ("payload", C.Str j.payload) ]));
    describe = (fun j -> [ ("mode", j.mode) ]);
  }

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle helpers. Socket paths must stay under the ~104-byte
   sun_path limit, so they live directly in the temp dir.              *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cntsrv-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Exit codes of the daemon child: encode the [Sv.run] outcome so the
   parent can assert on how the server stopped. *)
let exit_drained = 0
let exit_tripped = 3
let exit_error = 4

let start_server ?journal ?(tweak = fun c -> c) () =
  let sock = fresh_sock () in
  let cfg = tweak (Sv.default_config ~socket_path:sock) in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    Jn.set_verbosity None;
    (match journal with
    | None -> ()
    | Some path ->
        Jn.set_enabled true;
        ignore (Jn.open_sink ~path ()));
    let code =
      match Sv.run cfg handlers with
      | Ok Sv.Drained -> exit_drained
      | Ok Sv.Tripped -> exit_tripped
      | Error _ -> exit_error
    in
    Jn.close_sink ();
    Unix._exit code
  end
  else begin
    (* Wait until the daemon accepts. *)
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec ready () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> Unix.close fd
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon did not come up";
          Unix.sleepf 0.02;
          ready ()
    in
    ready ();
    (sock, pid)
  end

let reap pid =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "daemon did not exit in time"
        end;
        Unix.sleepf 0.02;
        go ()
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
  in
  go ()

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

let with_server ?journal ?tweak f =
  let sock, pid = start_server ?journal ?tweak () in
  match f sock pid with
  | v ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      v
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* Client helpers.                                                     *)

let work ?(mode = "echo") ?(payload = "") ?sleep_s ?deadline_s () =
  C.Obj
    ([ ("verb", C.Str "work"); ("mode", C.Str mode); ("payload", C.Str payload) ]
    @ (match sleep_s with None -> [] | Some s -> [ ("sleep_s", C.Num s) ])
    @ match deadline_s with None -> [] | Some d -> [ ("deadline_s", C.Num d) ])

let call sock json = R.get_exn (Sv.call ~socket_path:sock ~timeout_s:15.0 json)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send_raw fd payload = R.get_exn (Sv.write_frame fd ~timeout_s:5.0 payload)
let send fd json = send_raw fd (C.json_to_string_compact json)

let recv fd =
  R.get_exn (Result.bind (Sv.read_frame fd ~timeout_s:15.0 ()) C.json_of_string)

let status resp =
  match Result.bind (C.field resp "status") (C.as_str "status") with
  | Ok s -> s
  | Error _ -> "?"

let check_ok_payload what expected resp =
  Alcotest.(check string) (what ^ " status") "ok" (status resp);
  match
    Result.bind (C.field resp "result") (fun r ->
        Result.bind (C.field r "payload") (C.as_str "payload"))
  with
  | Ok p -> Alcotest.(check string) what expected p
  | Error e -> Alcotest.failf "%s: bad response: %s" what (R.to_string e)

let check_error what code resp =
  match Sv.response_error resp with
  | Some e ->
      Alcotest.(check string) what (R.code_name code) (R.code_name e.R.code)
  | None -> Alcotest.failf "%s: expected an error response" what

(* ------------------------------------------------------------------ *)
(* Protocol basics                                                     *)

let health_and_echo () =
  with_server @@ fun sock pid ->
  let h = call sock (C.Obj [ ("verb", C.Str "health") ]) in
  Alcotest.(check string) "health status" "ok" (status h);
  (match
     Result.bind (C.field h "health") (fun o ->
         Result.bind (C.field o "state") (C.as_str "state"))
   with
  | Ok s -> Alcotest.(check string) "state" "running" s
  | Error e -> Alcotest.failf "health shape: %s" (R.to_string e));
  check_ok_payload "echo" "hello" (call sock (work ~payload:"hello" ()));
  Alcotest.(check int) "clean drain" exit_drained (stop pid)

let several_requests_one_connection () =
  with_server @@ fun sock _pid ->
  let fd = connect sock in
  send fd (work ~payload:"a" ());
  send fd (work ~payload:"b" ());
  (* Pipelined requests run on concurrent workers, so responses come
     back in completion order, not send order — both must arrive, in
     some order, on the one connection. *)
  let payload_of resp =
    match
      Result.bind (C.field resp "result") (fun r ->
          Result.bind (C.field r "payload") (C.as_str "payload"))
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "response shape: %s" (R.to_string e)
  in
  let got = List.sort compare [ payload_of (recv fd); payload_of (recv fd) ] in
  Alcotest.(check (list string)) "both answered" [ "a"; "b" ] got;
  Unix.close fd

let call_without_daemon () =
  match Sv.call ~socket_path:(fresh_sock ()) (work ()) with
  | Ok _ -> Alcotest.fail "connect to nothing succeeded"
  | Error e ->
      Alcotest.(check string) "io error" (R.code_name R.Io_error)
        (R.code_name e.R.code)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let oversized_request_refused () =
  with_server ~tweak:(fun c -> { c with Sv.max_request_bytes = 256 })
  @@ fun sock _pid ->
  let fd = connect sock in
  send fd (work ~payload:(String.make 1024 'x') ());
  check_error "oversized" R.Validation_error (recv fd);
  (* The framing-level refusal costs the connection, not the daemon. *)
  check_ok_payload "still serving" "ok" (call sock (work ~payload:"ok" ()));
  Unix.close fd

let malformed_json_rejected () =
  with_server @@ fun sock _pid ->
  let fd = connect sock in
  send_raw fd "{this is not json";
  check_error "malformed" R.Parse_error (recv fd);
  (* The frame boundary was clean, so the connection survives. *)
  send fd (work ~payload:"after" ());
  check_ok_payload "connection survives" "after" (recv fd);
  Unix.close fd

let truncated_frame_rejected () =
  with_server @@ fun sock _pid ->
  let fd = connect sock in
  (* Header promises 100 bytes; deliver 10 and half-close. *)
  let b = Bytes.create 14 in
  Bytes.set b 0 '\000';
  Bytes.set b 1 '\000';
  Bytes.set b 2 '\000';
  Bytes.set b 3 'd';
  Bytes.blit_string "0123456789" 0 b 4 10;
  ignore (Unix.write fd b 0 14);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  check_error "truncated" R.Parse_error (recv fd);
  Unix.close fd

let zero_length_frame_rejected () =
  with_server @@ fun sock _pid ->
  let fd = connect sock in
  ignore (Unix.write fd (Bytes.make 4 '\000') 0 4);
  check_error "zero-length" R.Parse_error (recv fd);
  Unix.close fd

let unknown_verb_and_admission_reject () =
  with_server @@ fun sock _pid ->
  check_error "unknown verb" R.Validation_error
    (call sock (C.Obj [ ("verb", C.Str "nonsense") ]));
  check_error "admission reject" R.Validation_error
    (call sock (work ~mode:"reject" ()));
  check_error "missing verb" R.Validation_error
    (call sock (C.Obj [ ("x", C.Num 1.0) ]))

let bad_deadline_rejected () =
  with_server @@ fun sock _pid ->
  check_error "negative deadline" R.Validation_error
    (call sock (work ~deadline_s:(-1.0) ()))

(* ------------------------------------------------------------------ *)
(* Crash isolation, typed handler failures, deadlines                  *)

let worker_crash_isolated () =
  with_server @@ fun sock pid ->
  (* A sibling in flight must survive the crash next door. *)
  let slow = connect sock in
  send slow (work ~payload:"sibling" ~sleep_s:0.6 ());
  check_error "crash" R.Worker_killed (call sock (work ~mode:"crash" ()));
  check_ok_payload "sibling unharmed" "sibling" (recv slow);
  Unix.close slow;
  check_ok_payload "daemon alive" "alive" (call sock (work ~payload:"alive" ()));
  Alcotest.(check int) "clean drain after crash" exit_drained (stop pid)

let handler_error_is_not_a_crash () =
  with_server @@ fun sock _pid ->
  check_error "typed failure" R.Non_finite (call sock (work ~mode:"fail" ()));
  check_ok_payload "daemon alive" "x" (call sock (work ~payload:"x" ()))

let deadline_kills_hung_worker () =
  with_server ~tweak:(fun c -> { c with Sv.default_deadline_s = 0.4 })
  @@ fun sock _pid ->
  let t0 = Unix.gettimeofday () in
  check_error "deadline" R.Worker_timeout (call sock (work ~mode:"hang" ()));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "killed promptly" true (dt < 5.0);
  check_ok_payload "daemon alive" "y" (call sock (work ~payload:"y" ()))

let per_request_deadline_overrides () =
  with_server @@ fun sock _pid ->
  (* Server default is 60 s; the request brings its own 0.3 s budget. *)
  check_error "own deadline" R.Worker_timeout
    (call sock (work ~mode:"hang" ~deadline_s:0.3 ()))

(* ------------------------------------------------------------------ *)
(* Overload shedding                                                   *)

let overload_sheds_with_retry_hint () =
  with_server ~tweak:(fun c ->
      { c with Sv.max_workers = 1; queue_limit = 0; retry_after_s = 2.5 })
  @@ fun sock _pid ->
  let slow = connect sock in
  send slow (work ~payload:"slow" ~sleep_s:1.0 ());
  Unix.sleepf 0.2;
  (* Worker busy, queue full (size 0): burst gets shed immediately. *)
  let shed = ref 0 in
  for _ = 1 to 3 do
    let resp = call sock (work ()) in
    Alcotest.(check string) "overloaded status" "overloaded" (status resp);
    (match Sv.response_error resp with
    | Some e ->
        Alcotest.(check string) "typed overload" (R.code_name R.Overloaded)
          (R.code_name e.R.code);
        if List.mem_assoc "retry_after_s" e.R.context then incr shed
    | None -> Alcotest.fail "overloaded response must decode to an error");
    ()
  done;
  Alcotest.(check int) "retry-after hint present" 3 !shed;
  check_ok_payload "slow request unaffected" "slow" (recv slow);
  Unix.close slow;
  (* Load gone: admitted again. *)
  check_ok_payload "recovered" "z" (call sock (work ~payload:"z" ()))

(* ------------------------------------------------------------------ *)
(* Graceful drain and the circuit breaker                              *)

let sigterm_drains_in_flight () =
  with_server @@ fun sock pid ->
  let fd = connect sock in
  send fd (work ~payload:"finishing" ~sleep_s:0.8 ());
  Unix.sleepf 0.2;
  Unix.kill pid Sys.sigterm;
  (* The in-flight request still completes and gets its response. *)
  check_ok_payload "drained in-flight" "finishing" (recv fd);
  Unix.close fd;
  Alcotest.(check int) "exit 0 after drain" exit_drained (reap pid)

let drain_timeout_aborts_stragglers () =
  with_server ~tweak:(fun c ->
      { c with Sv.drain_timeout_s = 0.3; default_deadline_s = 60.0 })
  @@ fun sock pid ->
  let fd = connect sock in
  send fd (work ~mode:"hang" ());
  Unix.sleepf 0.2;
  Unix.kill pid Sys.sigterm;
  (* Hung worker outlives the drain budget: typed abort, then exit. *)
  check_error "aborted by drain" R.Worker_timeout (recv fd);
  Unix.close fd;
  Alcotest.(check int) "still a clean drain" exit_drained (reap pid)

let breaker_trips_on_crash_churn () =
  with_server ~tweak:(fun c ->
      {
        c with
        Sv.breaker_threshold = 2;
        breaker_window_s = 60.0;
        backoff_initial_s = 0.01;
        backoff_max_s = 0.02;
      })
  @@ fun sock pid ->
  check_error "crash 1" R.Worker_killed (call sock (work ~mode:"crash" ()));
  check_error "crash 2" R.Worker_killed (call sock (work ~mode:"crash" ()));
  (* Two crashes inside the window: the breaker flips the daemon to
     draining and it exits on its own, reporting Tripped. *)
  Alcotest.(check int) "tripped" exit_tripped (reap pid)

(* ------------------------------------------------------------------ *)
(* The journal narrates the whole story                                *)

let journal_records_lifecycle () =
  let jpath =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cntsrv-journal-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists jpath then Sys.remove jpath;
  (with_server ~journal:jpath @@ fun sock pid ->
   check_ok_payload "one ok" "j" (call sock (work ~payload:"j" ()));
   check_error "one crash" R.Worker_killed (call sock (work ~mode:"crash" ()));
   check_error "one refusal" R.Validation_error
     (call sock (work ~mode:"reject" ()));
   Alcotest.(check int) "drained" exit_drained (stop pid));
  let events, skipped = R.get_exn (Jn.load ~path:jpath) in
  Alcotest.(check int) "no torn lines" 0 skipped;
  (* Request n runs in worker req-<n>, and every event of the request,
     the refused one's too, names it. *)
  List.iter
    (fun (e : Jn.event) ->
      match Jn.find e "request" with
      | Some n ->
          Alcotest.(check (option string))
            (Jn.kind_name e.Jn.ev_kind ^ " names its worker")
            (Some ("req-" ^ n)) (Jn.find e "worker")
      | None -> ())
    events;
  let has k =
    List.exists (fun (e : Jn.event) -> e.Jn.ev_kind = k) events
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool) (name ^ " recorded") true (has k))
    [
      ("server_started", Jn.Server_started);
      ("request_admitted", Jn.Request_admitted);
      ("worker_spawned", Jn.Worker_spawned);
      ("request_done", Jn.Request_done);
      ("worker_killed", Jn.Worker_killed);
      ("request_rejected", Jn.Request_rejected);
      ("server_draining", Jn.Server_draining);
      ("server_stopped", Jn.Server_stopped);
    ];
  Sys.remove jpath

(* Health, the metrics verb and the final server_stopped event report
   one set of lifecycle totals. *)
let lifecycle_totals_agree () =
  let jpath =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cntsrv-totals-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists jpath then Sys.remove jpath;
  (* The daemon forks from here and inherits telemetry on. *)
  T.set_enabled true;
  T.reset ();
  let health, metrics =
    Fun.protect ~finally:(fun () -> T.set_enabled false) @@ fun () ->
    with_server ~journal:jpath @@ fun sock pid ->
    check_ok_payload "one ok" "t" (call sock (work ~payload:"t" ()));
    check_error "one crash" R.Worker_killed (call sock (work ~mode:"crash" ()));
    check_error "one refusal" R.Validation_error
      (call sock (work ~mode:"reject" ()));
    let get resp name = R.get_exn (C.field resp name) in
    let health = get (call sock (C.Obj [ ("verb", C.Str "health") ])) "health" in
    let metrics =
      R.get_exn
        (Mx.of_json (get (call sock (C.Obj [ ("verb", C.Str "metrics") ])) "metrics"))
    in
    Alcotest.(check int) "drained" exit_drained (stop pid);
    (health, metrics)
  in
  let events, _ = R.get_exn (Jn.load ~path:jpath) in
  let stopped =
    match List.find_opt (fun e -> e.Jn.ev_kind = Jn.Server_stopped) events with
    | Some e -> e
    | None -> Alcotest.fail "no server_stopped event"
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (option int)) ("health " ^ name) (Some want)
        (Result.to_option
           (Result.map int_of_float
              (Result.bind (C.field health name) (C.as_num name))));
      Alcotest.(check (option int)) ("metrics serve." ^ name) (Some want)
        (List.assoc_opt ("serve." ^ name) metrics.Mx.m_counters);
      Alcotest.(check (option string)) ("server_stopped " ^ name)
        (Some (string_of_int want)) (Jn.find stopped name))
    [
      ("served", 1);
      ("failed", 1);
      ("shed", 0);
      ("rejected", 1);
      ("worker_crashes", 1);
      ("deadline_kills", 0);
    ];
  Sys.remove jpath

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          tc "health and echo roundtrip" `Quick health_and_echo;
          tc "several requests, one connection" `Quick
            several_requests_one_connection;
          tc "call without a daemon is a typed io-error" `Quick
            call_without_daemon;
        ] );
      ( "admission",
        [
          tc "oversized request refused before payload" `Quick
            oversized_request_refused;
          tc "malformed JSON rejected, connection survives" `Quick
            malformed_json_rejected;
          tc "truncated frame rejected" `Quick truncated_frame_rejected;
          tc "zero-length frame rejected" `Quick zero_length_frame_rejected;
          tc "unknown verb / admission reject / missing verb" `Quick
            unknown_verb_and_admission_reject;
          tc "invalid deadline rejected" `Quick bad_deadline_rejected;
        ] );
      ( "isolation",
        [
          tc "worker crash isolated from siblings" `Quick worker_crash_isolated;
          tc "typed handler failure is not a crash" `Quick
            handler_error_is_not_a_crash;
          tc "deadline kills a hung worker" `Quick deadline_kills_hung_worker;
          tc "per-request deadline overrides default" `Quick
            per_request_deadline_overrides;
        ] );
      ( "overload",
        [ tc "burst sheds with retry hint" `Quick overload_sheds_with_retry_hint ] );
      ( "drain",
        [
          tc "SIGTERM drains in-flight work, exit 0" `Quick
            sigterm_drains_in_flight;
          tc "drain timeout aborts stragglers" `Quick
            drain_timeout_aborts_stragglers;
          tc "breaker trips on crash churn" `Quick breaker_trips_on_crash_churn;
        ] );
      ( "journal",
        [
          tc "lifecycle recorded as typed events" `Quick
            journal_records_lifecycle;
          tc "health, metrics and server_stopped agree" `Quick
            lifecycle_totals_agree;
        ] );
    ]
