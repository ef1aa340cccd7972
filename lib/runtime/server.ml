module E = Cnt_error
module J = Checkpoint

let ( let* ) = Result.bind

type config = {
  socket_path : string;
  max_workers : int;
  queue_limit : int;
  max_request_bytes : int;
  default_deadline_s : float;
  max_deadline_s : float;
  drain_timeout_s : float;
  breaker_threshold : int;
  breaker_window_s : float;
  backoff_initial_s : float;
  backoff_max_s : float;
  retry_after_s : float;
  metrics_path : string option;
  metrics_interval_s : float;
}

let default_config ~socket_path =
  {
    socket_path;
    max_workers = 4;
    queue_limit = 16;
    max_request_bytes = 8 * 1024 * 1024;
    default_deadline_s = 60.0;
    max_deadline_s = 3600.0;
    drain_timeout_s = 30.0;
    breaker_threshold = 5;
    breaker_window_s = 60.0;
    backoff_initial_s = 0.05;
    backoff_max_s = 2.0;
    retry_after_s = 1.0;
    metrics_path = None;
    metrics_interval_s = 1.0;
  }

type 'job handlers = {
  admit : J.json -> ('job, E.t) result;
  execute : 'job -> (J.json, E.t) result;
  describe : 'job -> (string * string) list;
}

type stop = Drained | Tripped

(* ------------------------------------------------------------------ *)
(* Error payloads                                                      *)

let error_to_json (e : E.t) =
  J.Obj
    [
      ("stage", J.Str (E.stage_name e.E.stage));
      ("code", J.Str (E.code_name e.E.code));
      ("message", J.Str e.E.message);
      ("context", J.obj (fun v -> J.Str v) e.E.context);
    ]

let error_of_json j =
  match
    let* stage_s = J.str_field j "stage" in
    let* code_s = J.str_field j "code" in
    let* message = J.str_field j "message" in
    let context =
      Result.value ~default:[] (J.obj_field J.as_str j "context")
    in
    let stage = Option.value ~default:E.Cli (E.stage_of_name stage_s) in
    let code = Option.value ~default:E.Internal (E.code_of_name code_s) in
    Ok (E.make ~context stage code message)
  with
  | Ok e -> Some e
  | Error _ -> None

let ok_response result = J.Obj [ ("status", J.Str "ok"); ("result", result) ]

let health_response fields =
  J.Obj [ ("status", J.Str "ok"); ("health", J.Obj fields) ]

let error_response e =
  J.Obj [ ("status", J.Str "error"); ("error", error_to_json e) ]

let overloaded_response ~retry_after_s ~state =
  J.Obj
    [
      ("status", J.Str "overloaded");
      ("retry_after_s", J.Num retry_after_s);
      ("state", J.Str state);
    ]

let response_error j =
  match J.str_field j "status" with
  | Ok "ok" -> None
  | Ok "error" -> (
      match J.field j "error" with
      | Ok ej -> (
          match error_of_json ej with
          | Some e -> Some e
          | None -> Some (E.make E.Cli E.Internal "undecodable error payload"))
      | Error _ -> Some (E.make E.Cli E.Internal "error response without payload"))
  | Ok "overloaded" ->
      let retry =
        match J.num_field j "retry_after_s" with
        | Ok r -> Printf.sprintf "%g" r
        | Error _ -> "?"
      in
      Some
        (E.make
           ~context:[ ("retry_after_s", retry) ]
           E.Cli E.Overloaded "server shed the request; retry later")
  | Ok other -> Some (E.makef E.Cli E.Internal "unknown response status %S" other)
  | Error _ -> Some (E.make E.Cli E.Internal "response without status")

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian payload length, then the JSON bytes.     *)

let header_bytes = 4

let encode_len n =
  let b = Bytes.create header_bytes in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  b

let decode_len b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let ignore_sigpipe =
  lazy
    (if not Sys.win32 then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

(* Wait until [fd] is ready in direction [dir] or the deadline passes. *)
let wait_fd fd dir ~deadline =
  let rec go () =
    let budget = deadline -. Unix.gettimeofday () in
    if budget <= 0.0 then false
    else
      let r, w = match dir with `R -> ([ fd ], []) | `W -> ([], [ fd ]) in
      match Unix.select r w [] budget with
      | [], [], _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let io_error fmt = E.error E.Cli E.Io_error fmt

let write_frame fd ?(timeout_s = 30.0) payload =
  Lazy.force ignore_sigpipe;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let n = String.length payload in
  let buf = Bytes.create (header_bytes + n) in
  Bytes.blit (encode_len n) 0 buf 0 header_bytes;
  Bytes.blit_string payload 0 buf header_bytes n;
  let total = Bytes.length buf in
  let rec go off =
    if off >= total then Ok ()
    else
      match Unix.write fd buf off (total - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if wait_fd fd `W ~deadline then go off
          else io_error "frame write timed out after %.1fs" timeout_s
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (err, _, _) ->
          io_error "frame write failed: %s" (Unix.error_message err)
  in
  go 0

let read_frame fd ?(timeout_s = 60.0) ?(max_bytes = 64 * 1024 * 1024) () =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let read_exactly n what =
    let buf = Bytes.create n in
    let rec go off =
      if off >= n then Ok buf
      else
        match Unix.read fd buf off (n - off) with
        | 0 -> io_error "connection closed mid-%s (%d of %d bytes)" what off n
        | r -> go (off + r)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            if wait_fd fd `R ~deadline then go off
            else io_error "frame read timed out after %.1fs" timeout_s
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (err, _, _) ->
            io_error "frame read failed: %s" (Unix.error_message err)
    in
    go 0
  in
  let* header = read_exactly header_bytes "header" in
  let n = decode_len header 0 in
  if n <= 0 || n > max_bytes then
    io_error "frame length %d outside (0, %d]" n max_bytes
  else
    let* payload = read_exactly n "payload" in
    Ok (Bytes.to_string payload)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

let call ~socket_path ?(timeout_s = 60.0) json =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | exception Unix.Unix_error (err, _, _) ->
          E.error
            ~context:[ ("socket", socket_path) ]
            E.Cli E.Io_error "cannot connect: %s" (Unix.error_message err)
      | () ->
          let* () = write_frame fd ~timeout_s (J.json_to_string_compact json) in
          let* payload = read_frame fd ~timeout_s () in
          J.json_of_string payload)

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_open : bool;
}

type 'job queued = {
  q_id : int;
  q_conn : conn;
  q_job : 'job;
  q_deadline_s : float;
}

type 'job flight = {
  f_req : 'job queued;
  f_job : J.json Supervisor.job;
  f_started : float;
}

type drain_reason = [ `No | `Signal | `Breaker ]

type 'job state = {
  cfg : config;
  h : 'job handlers;
  listen_fd : Unix.file_descr;
  sig_r : Unix.file_descr;
  started : float;
  mutable accepting : bool;
  mutable conns : conn list;
  mutable queue : 'job queued list;  (** oldest first *)
  mutable flights : 'job flight list;
  mutable draining : drain_reason;
  mutable drain_deadline : float;
  mutable next_conn : int;
  mutable next_req : int;
  mutable crash_times : float list;
  mutable backoff_s : float;
  mutable backoff_until : float;
  mutable respawn_pending : bool;
  mutable last_metrics_write : float;
}

(* The daemon's lifecycle totals live in the telemetry registry alone, as
   the counters [serve.<name>]: [health], the [metrics] verb and the
   [server_stopped] event all read them there. *)
let lifecycle =
  [ "served"; "failed"; "shed"; "rejected"; "worker_crashes"; "deadline_kills" ]

let bump name = Telemetry.count ("serve." ^ name) 1
let total name = Telemetry.counter ("serve." ^ name)

let jn kind fields = if Journal.enabled () then Journal.emit kind fields
let jnw kind fields =
  if Journal.enabled () then Journal.emit ~level:Journal.Warn kind fields

let req_ctx id = ("request", string_of_int id)

(* Request [n] runs in worker [req-<n>]; every journal event of the
   request names that worker, so [cntpower trace --request] reads one
   request out of the shared journal by name. *)
let worker_name id = Printf.sprintf "req-%d" id
let req_fields id = [ req_ctx id; ("worker", worker_name id) ]

(* Every frame takes a number, a refused one too, so no two requests
   share a name. *)
let next_id st =
  let id = st.next_req in
  st.next_req <- id + 1;
  id

(* Best-effort response: a client that vanished or stalled must never
   wedge the loop, so a failed write just closes that connection. *)
let close_conn st conn =
  if conn.c_open then begin
    conn.c_open <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c -> c.c_id <> conn.c_id) st.conns;
    st.queue <- List.filter (fun q -> q.q_conn.c_id <> conn.c_id) st.queue
  end

let respond st conn json =
  if conn.c_open then
    match write_frame conn.c_fd ~timeout_s:5.0 (J.json_to_string_compact json) with
    | Ok () -> ()
    | Error _ -> close_conn st conn

let state_name st =
  match st.draining with
  | `No -> "running"
  | `Signal -> "draining"
  | `Breaker -> "draining-breaker"

let health st now =
  health_response
    ([
       ("state", J.Str (state_name st));
       ("pid", J.Num (float_of_int (Unix.getpid ())));
       ("socket", J.Str st.cfg.socket_path);
       ("uptime_s", J.Num (now -. st.started));
       ("workers_busy", J.Num (float_of_int (List.length st.flights)));
       ("workers_max", J.Num (float_of_int st.cfg.max_workers));
       ("queue_depth", J.Num (float_of_int (List.length st.queue)));
       ("queue_limit", J.Num (float_of_int st.cfg.queue_limit));
     ]
    @ List.map (fun k -> (k, J.Num (float_of_int (total k)))) lifecycle
    @ [ ("backoff_active", J.Bool (now < st.backoff_until)) ])

(* One live snapshot: the registry's counters and latency distributions,
   with gauges read off the loop's queues. Served both by the [metrics]
   verb (inline, ahead of shedding, so it works under load and while
   draining) and as periodic [metrics.json] writes. *)
let metrics_snapshot st now =
  Metrics.make ~source:"serve" ~started:st.started
    ~gauges:
      [
        ("queue_depth", float_of_int (List.length st.queue));
        ("queue_limit", float_of_int st.cfg.queue_limit);
        ("workers_busy", float_of_int (List.length st.flights));
        ("workers_max", float_of_int st.cfg.max_workers);
        ("connections_open", float_of_int (List.length st.conns));
        ("backoff_active", if now < st.backoff_until then 1.0 else 0.0);
        ("draining", if st.draining = `No then 0.0 else 1.0);
      ]
    ()

let metrics_response st now =
  J.Obj
    [
      ("status", J.Str "ok");
      ("metrics", Metrics.to_json (metrics_snapshot st now));
    ]

let write_metrics st now =
  match st.cfg.metrics_path with
  | None -> ()
  | Some path ->
      st.last_metrics_write <- now;
      ignore (Metrics.save ~path (metrics_snapshot st now))

(* ------------------------------------------------------------------ *)
(* Lifecycle transitions                                               *)

let stop_accepting st =
  if st.accepting then begin
    st.accepting <- false;
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink st.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ())
  end

let start_drain st reason now =
  if st.draining = `No then begin
    st.draining <- reason;
    st.drain_deadline <- now +. st.cfg.drain_timeout_s;
    stop_accepting st;
    jn Journal.Server_draining
      [
        ("reason", match reason with `Breaker -> "breaker" | _ -> "signal");
        ("in_flight", string_of_int (List.length st.flights));
        ("queued", string_of_int (List.length st.queue));
        ("drain_timeout_s", Printf.sprintf "%.1f" st.cfg.drain_timeout_s);
      ]
  end

let shed st conn ~why =
  bump "shed";
  jnw Journal.Overload_shed
    [
      ("reason", why);
      ("queue_depth", string_of_int (List.length st.queue));
      ("in_flight", string_of_int (List.length st.flights));
    ];
  respond st conn
    (overloaded_response ~retry_after_s:st.cfg.retry_after_s ~state:(state_name st))

let reject st conn id e =
  bump "rejected";
  jnw Journal.Request_rejected
    (req_fields id
    @ [ ("code", E.code_name e.E.code); ("message", e.E.message) ]);
  respond st conn (error_response e)

(* ------------------------------------------------------------------ *)
(* Dispatch and completion                                             *)

(* The daemon's own descriptors: the pool's [wait] watches them next to
   the worker pipes, and a forked worker must not keep them open (that
   would defeat EOF detection and drain). *)
let own_fds st =
  (st.sig_r :: (if st.accepting then [ st.listen_fd ] else []))
  @ List.map (fun c -> c.c_fd) st.conns

let dispatch st req now =
  if st.respawn_pending then begin
    st.respawn_pending <- false;
    jn Journal.Worker_respawned
      [ ("backoff_s", Printf.sprintf "%.3f" st.backoff_s) ]
  end;
  let execute = st.h.execute in
  let job = req.q_job in
  let name = worker_name req.q_id in
  let worker =
    Supervisor.spawn ~telemetry_prefix:[ "serve.request"; name ]
      ~close_in_child:(own_fds st) ~timeout_s:req.q_deadline_s ~name
      (fun () -> match execute job with Ok j -> j | Error e -> E.raise_error e)
  in
  st.flights <- { f_req = req; f_job = worker; f_started = now } :: st.flights

let try_dispatch st now =
  let rec go () =
    if
      List.length st.flights < st.cfg.max_workers
      && st.queue <> []
      && now >= st.backoff_until
    then begin
      match st.queue with
      | [] -> ()
      | req :: rest ->
          st.queue <- rest;
          dispatch st req now;
          go ()
    end
  in
  go ()

let request_done flight ~status ~wall extra =
  Telemetry.observe "serve.request_wall_s" wall;
  jn Journal.Request_done
    (req_fields flight.f_req.q_id
    @ [ ("status", status); ("wall_s", Printf.sprintf "%.4f" wall) ]
    @ extra)

let breaker_hot st now =
  st.crash_times <-
    List.filter (fun t -> now -. t <= st.cfg.breaker_window_s) st.crash_times;
  List.length st.crash_times >= st.cfg.breaker_threshold

let on_worker_done st flight result now =
  st.flights <- List.filter (fun f -> f.f_req.q_id <> flight.f_req.q_id) st.flights;
  let wall = now -. flight.f_started in
  match result with
  | Ok json ->
      bump "served";
      st.backoff_s <- st.cfg.backoff_initial_s;
      request_done flight ~status:"ok" ~wall [];
      respond st flight.f_req.q_conn (ok_response json)
  | Error e when e.E.code = E.Worker_killed ->
      (* The worker died, not the request: isolate, back off, maybe trip. *)
      bump "failed";
      bump "worker_crashes";
      st.crash_times <- now :: st.crash_times;
      st.backoff_until <- now +. st.backoff_s;
      st.backoff_s <- Float.min (st.backoff_s *. 2.0) st.cfg.backoff_max_s;
      st.respawn_pending <- true;
      request_done flight ~status:"crashed" ~wall
        [ ("code", E.code_name e.E.code) ];
      respond st flight.f_req.q_conn
        (error_response (E.with_context e [ req_ctx flight.f_req.q_id ]));
      if breaker_hot st now && st.draining = `No then begin
        jnw Journal.Breaker_tripped
          [
            ("crashes", string_of_int (List.length st.crash_times));
            ("window_s", Printf.sprintf "%.1f" st.cfg.breaker_window_s);
          ];
        bump "breaker_trips";
        start_drain st `Breaker now
      end
  | Error e when e.E.code = E.Worker_timeout ->
      bump "failed";
      bump "deadline_kills";
      request_done flight ~status:"deadline" ~wall [];
      respond st flight.f_req.q_conn
        (error_response (E.with_context e [ req_ctx flight.f_req.q_id ]))
  | Error e ->
      (* Typed failure from the handler itself (or a refused fork): the
         worker is fine. *)
      bump "failed";
      bump "request_errors";
      st.backoff_s <- st.cfg.backoff_initial_s;
      request_done flight ~status:"error" ~wall
        [ ("code", E.code_name e.E.code) ];
      respond st flight.f_req.q_conn (error_response e)

(* ------------------------------------------------------------------ *)
(* Request admission                                                   *)

let parse_deadline st json =
  let some name v = Result.map Option.some (J.as_num name v) in
  match J.opt_field some json "deadline_s" ~default:None with
  | Error _ as e -> e
  | Ok None -> Ok st.cfg.default_deadline_s
  | Ok (Some d) when Float.is_finite d && d > 0.0 ->
      Ok (Float.min d st.cfg.max_deadline_s)
  | Ok (Some d) ->
      E.error
        ~context:[ ("deadline_s", Printf.sprintf "%h" d) ]
        E.Cli E.Validation_error
        "deadline_s must be a finite number of seconds > 0"

let process_request st conn json now =
  bump "requests";
  let id = next_id st in
  let verb =
    match J.str_field json "verb" with
    | Ok v -> Ok v
    | Error _ ->
        E.error ~context:[ req_ctx id ] E.Cli E.Validation_error
          "request needs a string \"verb\" field"
  in
  bump ("verb." ^ match verb with Ok v -> v | Error _ -> "invalid");
  match verb with
  | Error e -> reject st conn id e
  | Ok "health" -> respond st conn (health st now)
  (* Like health, metrics answers inline ahead of shedding: an operator's
     poll must work exactly when the server is loaded or draining. *)
  | Ok "metrics" -> respond st conn (metrics_response st now)
  | Ok _ when st.draining <> `No -> shed st conn ~why:"draining"
  | Ok _
    when List.length st.flights >= st.cfg.max_workers
         && List.length st.queue >= st.cfg.queue_limit ->
      (* Shed before validating: admission work is exactly what an
         overloaded server must not spend on traffic it will refuse. *)
      shed st conn ~why:"queue-full"
  | Ok _ -> (
      match
        let* deadline_s = parse_deadline st json in
        let* job = st.h.admit json in
        Ok (deadline_s, job)
      with
      | Error e -> reject st conn id (E.with_context e [ req_ctx id ])
      | Ok (deadline_s, job) ->
          let req =
            { q_id = id; q_conn = conn; q_job = job; q_deadline_s = deadline_s }
          in
          bump "admitted";
          jn Journal.Request_admitted
            (req_fields id
            @ [
                ("conn", string_of_int conn.c_id);
                ("deadline_s", Printf.sprintf "%.1f" deadline_s);
              ]
            @ st.h.describe job);
          st.queue <- st.queue @ [ req ];
          try_dispatch st now)

(* Frame reassembly: the connection buffer accumulates raw bytes; every
   complete [header + payload] is peeled off and processed. A length
   prefix beyond the admission cap is refused without reading the
   payload, and a framing-level violation costs the connection. *)
let process_buffer st conn now =
  let rec go () =
    if conn.c_open then begin
      let len = Buffer.length conn.c_buf in
      if len >= header_bytes then begin
        let raw = Buffer.to_bytes conn.c_buf in
        let n = decode_len raw 0 in
        if n <= 0 then begin
          reject st conn (next_id st)
            (E.make E.Cli E.Parse_error "zero-length frame");
          close_conn st conn
        end
        else if n > st.cfg.max_request_bytes then begin
          reject st conn (next_id st)
            (E.makef
               ~context:
                 [
                   ("bytes", string_of_int n);
                   ("max_request_bytes", string_of_int st.cfg.max_request_bytes);
                 ]
               E.Cli E.Validation_error
               "request of %d bytes exceeds the %d-byte admission limit" n
               st.cfg.max_request_bytes);
          close_conn st conn
        end
        else if len >= header_bytes + n then begin
          let payload = Bytes.sub_string raw header_bytes n in
          Buffer.clear conn.c_buf;
          Buffer.add_subbytes conn.c_buf raw (header_bytes + n)
            (len - header_bytes - n);
          (match J.json_of_string payload with
          | Error e ->
              reject st conn (next_id st)
                (E.with_context e [ ("frame_bytes", string_of_int n) ])
          | Ok json -> process_request st conn json now);
          go ()
        end
      end
    end
  in
  go ()

let on_conn_readable st conn now =
  let chunk = Bytes.create 65536 in
  let rec read_some () =
    match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* EOF. Bytes left in the buffer are a frame that will never
           complete: tell the peer (its write side may still be open —
           the truncated-frame probe in the tests half-closes) and drop
           the connection. *)
        if Buffer.length conn.c_buf > 0 then
          reject st conn (next_id st)
            (E.makef
               ~context:[ ("buffered_bytes", string_of_int (Buffer.length conn.c_buf)) ]
               E.Cli E.Parse_error
               "connection closed mid-frame (truncated request)");
        close_conn st conn
    | n ->
        Buffer.add_subbytes conn.c_buf chunk 0 n;
        process_buffer st conn now;
        if conn.c_open then read_some ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some ()
    | exception Unix.Unix_error _ -> close_conn st conn
  in
  read_some ()

let accept_ready st =
  let rec go () =
    match Unix.accept st.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          { c_id = st.next_conn; c_fd = fd; c_buf = Buffer.create 256; c_open = true }
        in
        st.next_conn <- st.next_conn + 1;
        st.conns <- conn :: st.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Socket setup                                                        *)

let bind_socket path =
  let addr = Unix.ADDR_UNIX path in
  let* () =
    if not (Sys.file_exists path) then Ok ()
    else begin
      (* Either a stale socket from a crashed server (safe to replace) or
         a live sibling (refuse: two servers on one path lose requests). *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe addr with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        E.error
          ~context:[ ("socket", path) ]
          E.Cli E.Io_error "socket is already being served"
      else
        match Unix.unlink path with
        | () -> Ok ()
        | exception Unix.Unix_error (err, _, _) ->
            E.error
              ~context:[ ("socket", path) ]
              E.Cli E.Io_error "cannot remove stale socket: %s"
              (Unix.error_message err)
    end
  in
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd addr;
       Unix.listen fd 64;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
      E.error
        ~context:[ ("socket", path) ]
        E.Cli E.Io_error "cannot bind: %s" (Unix.error_message err)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let validate_config cfg =
  let* () =
    Validate.require ~stage:E.Cli (cfg.max_workers >= 1)
      "serve: workers must be >= 1"
  in
  let* () =
    Validate.require ~stage:E.Cli (cfg.queue_limit >= 0)
      "serve: queue limit must be >= 0"
  in
  let* () =
    Validate.require ~stage:E.Cli (cfg.max_request_bytes >= 64)
      "serve: max request bytes must be >= 64"
  in
  let* () =
    Validate.require ~stage:E.Cli
      (Float.is_finite cfg.default_deadline_s && cfg.default_deadline_s > 0.0)
      "serve: default deadline must be finite and > 0"
  in
  Validate.require ~stage:E.Cli
    (Float.is_finite cfg.drain_timeout_s && cfg.drain_timeout_s >= 0.0)
    "serve: drain timeout must be finite and >= 0"

let drain_expired st now =
  (* The drain budget is spent: abort stragglers with typed errors so
     every accepted request still gets exactly one response. *)
  Supervisor.abort_all (List.map (fun f -> f.f_job) st.flights);
  List.iter
    (fun flight ->
      bump "failed";
      jnw Journal.Worker_killed
        (req_fields flight.f_req.q_id @ [ ("reason", "drain-timeout") ]);
      request_done flight ~status:"aborted" ~wall:(now -. flight.f_started) [];
      respond st flight.f_req.q_conn
        (error_response
           (E.make
              ~context:[ req_ctx flight.f_req.q_id ]
              E.Experiment E.Worker_timeout
              "server drain timeout expired before the request finished")))
    st.flights;
  st.flights <- [];
  List.iter
    (fun req ->
      respond st req.q_conn
        (error_response
           (E.make ~context:[ req_ctx req.q_id ] E.Cli E.Overloaded
              "server stopped before the queued request ran")))
    st.queue;
  st.queue <- []

let run cfg h =
  let* () = validate_config cfg in
  let* listen_fd = bind_socket cfg.socket_path in
  Lazy.force ignore_sigpipe;
  let sig_r, sig_w = Unix.pipe () in
  Unix.set_nonblock sig_r;
  (* Belt and braces: the self-pipe wakes a sleeping [select] instantly,
     and the flag — polled every loop iteration, which the bounded select
     timeout guarantees runs at least once a second — keeps a drain
     request alive even if the pipe write is ever lost. *)
  let drain_flag = ref false in
  let notify _ =
    drain_flag := true;
    try ignore (Unix.write sig_w (Bytes.make 1 '!') 0 1) with _ -> ()
  in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle notify) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle notify) in
  (* Every snapshot lists each lifecycle total, 0 until it first moves. *)
  Telemetry.set_enabled true;
  Telemetry.reset ();
  List.iter (fun k -> Telemetry.count ("serve." ^ k) 0) lifecycle;
  let now0 = Unix.gettimeofday () in
  let st =
    {
      cfg;
      h;
      listen_fd;
      sig_r;
      started = now0;
      accepting = true;
      conns = [];
      queue = [];
      flights = [];
      draining = `No;
      drain_deadline = infinity;
      next_conn = 1;
      next_req = 1;
      crash_times = [];
      backoff_s = cfg.backoff_initial_s;
      backoff_until = 0.0;
      respawn_pending = false;
      last_metrics_write = 0.0;
    }
  in
  jn Journal.Server_started
    [
      ("socket", cfg.socket_path);
      ("pid", string_of_int (Unix.getpid ()));
      ("workers", string_of_int cfg.max_workers);
      ("queue_limit", string_of_int cfg.queue_limit);
      ("max_request_bytes", string_of_int cfg.max_request_bytes);
      ("default_deadline_s", Printf.sprintf "%.1f" cfg.default_deadline_s);
    ];
  let finished = ref None in
  let finish reason = finished := Some reason in
  let cleanup () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    (try Unix.close sig_r with Unix.Unix_error _ -> ());
    (try Unix.close sig_w with Unix.Unix_error _ -> ());
    stop_accepting st;
    Supervisor.abort_all (List.map (fun f -> f.f_job) st.flights);
    List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) st.conns;
    st.conns <- []
  in
  Fun.protect ~finally:cleanup (fun () ->
      while !finished = None do
        let now = Unix.gettimeofday () in
        if !drain_flag then start_drain st `Signal now;
        if now -. st.last_metrics_write >= cfg.metrics_interval_s then
          write_metrics st now;
        if st.draining <> `No && now > st.drain_deadline then drain_expired st now;
        try_dispatch st now;
        if st.draining <> `No && st.queue = [] && st.flights = [] then
          finish (match st.draining with `Breaker -> Tripped | _ -> Drained)
        else begin
          (* Wake at least once a second, at the drain deadline, and when
             the dispatch backoff ends; worker deadlines are the pool's. *)
          let until =
            Float.min (now +. 1.0)
              (if st.draining <> `No then st.drain_deadline else infinity)
          in
          let until =
            if st.queue <> [] && st.backoff_until > now then
              Float.min until st.backoff_until
            else until
          in
          let ready, reaped =
            Supervisor.wait ~fds:(own_fds st) ~until
              (List.map (fun f -> f.f_job) st.flights)
          in
          let now = Unix.gettimeofday () in
          if List.mem st.sig_r ready then begin
            let b = Bytes.create 16 in
            (try ignore (Unix.read st.sig_r b 0 16) with Unix.Unix_error _ -> ());
            start_drain st `Signal now
          end;
          (* Completions first: they free worker slots. *)
          List.iter
            (fun (job, result) ->
              on_worker_done st
                (List.find (fun f -> f.f_job == job) st.flights)
                result now)
            reaped;
          List.iter
            (fun conn ->
              if conn.c_open && List.mem conn.c_fd ready then
                on_conn_readable st conn now)
            st.conns;
          if st.accepting && List.mem st.listen_fd ready then accept_ready st
        end
      done;
      let reason = Option.get !finished in
      write_metrics st (Unix.gettimeofday ());
      jn Journal.Server_stopped
        (("reason", match reason with Tripped -> "breaker" | Drained -> "drained")
        :: List.map (fun k -> (k, string_of_int (total k))) lifecycle);
      Ok reason)
