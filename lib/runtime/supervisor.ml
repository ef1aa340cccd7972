module E = Cnt_error

let retryable (e : E.t) =
  match e.E.code with E.Worker_timeout | E.Worker_killed -> true | _ -> false

(* The worker writes its marshalled result on the job's pipe and exits 0.
   Anything else — truncated payload, nonzero exit, signal death — is an
   infrastructure failure, typed below. *)

let flush_all_output () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else string_of_int s

let worker_ctx ~name pairs = ("worker", name) :: pairs

type 'a state =
  | Running of int * Unix.file_descr  (** worker pid, non-blocking read end *)
  | Finished of ('a, E.t) result

type 'a job = {
  name : string;
  ctx : Tracectx.t option;  (** the spawner's; stamps parent-side events *)
  prefix : string list;  (** [[]]: no profile *)
  timeout_s : float;
  started : float;
  deadline : float;  (** epoch; [infinity] = none *)
  buf : Buffer.t;
  mutable state : 'a state;
}

let in_ctx job f =
  let saved = Tracectx.current () in
  Tracectx.set job.ctx;
  Fun.protect ~finally:(fun () -> Tracectx.set saved) f

let emit ?(level = Journal.Debug) job kind pid fields =
  if Journal.enabled () then
    in_ctx job (fun () ->
        Journal.emit ~level kind
          (worker_ctx ~name:job.name
             (("worker_pid", string_of_int pid) :: fields)))

(* The worker never lets anything escape: compute, flush the inherited
   stdio so its output lands before the parent resumes, ship the result
   with its captured journal events and telemetry snapshot, and _exit
   without running the parent's at_exit handlers. *)
let child ~close_in_child ~profiled wr f =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    close_in_child;
  Journal.begin_capture ();
  (* The trace context rode the fork in process memory; derive a child
     span so the worker's events link back to the spawning request. *)
  Tracectx.set (Option.map Tracectx.child (Tracectx.current ()));
  if profiled then Telemetry.reset ();
  let result = E.protect ~stage:E.Experiment f in
  let profile = if profiled then Some (Telemetry.snapshot ()) else None in
  let events = Journal.end_capture () in
  flush_all_output ();
  (try
     let oc = Unix.out_channel_of_descr wr in
     Marshal.to_channel oc
       ((result, events, profile)
         : (_, E.t) result * Journal.event list * Telemetry.profile option)
       [];
     flush oc
   with _ -> ());
  Unix._exit 0

let spawn ?(telemetry_prefix = []) ?(close_in_child = []) ?(timeout_s = 0.0)
    ~name f =
  flush_all_output ();
  let started = Unix.gettimeofday () in
  let job state =
    {
      name;
      ctx = Tracectx.current ();
      prefix = telemetry_prefix;
      timeout_s;
      started;
      deadline = (if timeout_s > 0.0 then started +. timeout_s else infinity);
      buf = Buffer.create 256;
      state;
    }
  in
  let refused exn =
    let e = E.of_exn ~stage:E.Experiment exn in
    job (Finished (Error (E.with_context e (worker_ctx ~name []))))
  in
  match Unix.pipe () with
  | exception exn -> refused exn
  | rd, wr -> (
      match Unix.fork () with
      | exception exn ->
          Unix.close rd;
          Unix.close wr;
          refused exn
      | 0 ->
          Unix.close rd;
          child ~close_in_child
            ~profiled:(telemetry_prefix <> [] && Telemetry.enabled ())
            wr f
      | pid ->
          Unix.close wr;
          Unix.set_nonblock rd;
          let j = job (Running (pid, rd)) in
          emit j Journal.Worker_spawned pid
            [ ("timeout_s", Printf.sprintf "%.1f" timeout_s) ];
          j)

(* Charge each prefix node one call and the worker's wall time, so the
   anchors above a worker's profile account for the time under them. *)
let graft prefix wall (p : Telemetry.profile) =
  let spans =
    List.fold_right
      (fun span_name children ->
        [ { Telemetry.span_name; calls = 1; total_s = wall; children } ])
      prefix p.Telemetry.p_spans
  in
  Telemetry.merge { p with Telemetry.p_spans = spans }

(* Reap a worker whose pipe reached EOF and classify how it ended. *)
let reap job pid =
  let killed detail msg =
    emit ~level:Journal.Warn job Journal.Worker_killed pid detail;
    Error
      (E.make ~context:(worker_ctx ~name:job.name detail) E.Experiment
         E.Worker_killed msg)
  in
  match waitpid_retry pid with
  | Unix.WEXITED 0 -> (
      match
        (Marshal.from_bytes (Buffer.to_bytes job.buf) 0
          : (_, E.t) result * Journal.event list * Telemetry.profile option)
      with
      | result, events, profile ->
          Journal.append_events events;
          Option.iter
            (graft job.prefix (Unix.gettimeofday () -. job.started))
            profile;
          emit job Journal.Worker_exited pid [];
          result
      | exception _ ->
          emit ~level:Journal.Warn job Journal.Worker_killed pid
            [ ("exit", "0") ];
          Error
            (E.make ~context:(worker_ctx ~name:job.name []) E.Experiment
               E.Internal "worker exited cleanly but returned no result"))
  | Unix.WEXITED code ->
      killed
        [ ("exit", string_of_int code) ]
        (Printf.sprintf "worker exited with code %d" code)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      killed
        [ ("signal", signal_name s) ]
        ("worker killed by signal " ^ signal_name s)

(* Drain whatever the pipe holds; at EOF the worker is done. *)
let step job =
  match job.state with
  | Finished _ -> ()
  | Running (pid, fd) ->
      let chunk = Bytes.create 4096 in
      let finish () =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        job.state <- Finished (reap job pid)
      in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> finish ()
        | n ->
            Buffer.add_subbytes job.buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error _ -> finish ()
      in
      drain ()

(* SIGKILL and reap a running worker, which then finishes with
   [result pid]. *)
let kill job result =
  match job.state with
  | Finished _ -> ()
  | Running (pid, fd) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid);
      job.state <- Finished (result pid)

let time_out job =
  let timeout_s = Printf.sprintf "%.1f" job.timeout_s in
  kill job (fun pid ->
      emit ~level:Journal.Warn job Journal.Worker_timeout pid
        [ ("timeout_s", timeout_s) ];
      Error
        (E.makef
           ~context:(worker_ctx ~name:job.name [ ("timeout_s", timeout_s) ])
           E.Experiment E.Worker_timeout
           "worker exceeded its %ss wall-clock watchdog and was killed"
           timeout_s))

let abort_all jobs =
  List.iter
    (fun job ->
      kill job (fun _ ->
          Error (E.make E.Experiment E.Worker_killed "worker aborted")))
    jobs

let wait ?(fds = []) ?(until = infinity) jobs =
  let running () =
    List.filter_map
      (fun j -> match j.state with Running (_, fd) -> Some fd | _ -> None)
      jobs
  in
  let finished () =
    List.filter_map
      (fun j -> match j.state with Finished r -> Some (j, r) | _ -> None)
      jobs
  in
  let rec loop () =
    let next =
      List.fold_left (fun acc j -> Float.min acc j.deadline) until jobs
    in
    let timeout =
      if finished () <> [] then 0.0
      else if next = infinity then -1.0
      else Float.max 0.0 (next -. Unix.gettimeofday ())
    in
    match Unix.select (fds @ running ()) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    | ready, _, _ ->
        (* Completions first: they must win races against their own
           deadlines. *)
        List.iter
          (fun j ->
            match j.state with
            | Running (_, fd) when List.mem fd ready -> step j
            | _ -> ())
          jobs;
        let now = Unix.gettimeofday () in
        List.iter (fun j -> if now >= j.deadline then time_out j) jobs;
        let ready = List.filter (fun fd -> List.mem fd ready) fds in
        let finished = finished () in
        if ready = [] && finished = [] && now < until then loop ()
        else (ready, finished)
  in
  if fds = [] && running () = [] && until = infinity then ([], finished ())
  else loop ()

(* ------------------------------------------------------------------ *)
(* Synchronous jobs with retry: [cntpower all]'s experiments.          *)

type policy = { timeout_s : float; retries : int }

let default_policy = { timeout_s = 900.0; retries = 1 }

type 'a outcome = {
  value : ('a, E.t) result;
  attempts : int;
  degraded : bool;
  wall_time : float;
}

let rec await job =
  match wait [ job ] with _, (_, r) :: _ -> r | _, [] -> await job

let run ?(policy = default_policy) ?telemetry_prefix ~name f =
  let t0 = Unix.gettimeofday () in
  let rec go n =
    let degraded = n > 1 in
    let outcome value =
      { value; attempts = n; degraded; wall_time = Unix.gettimeofday () -. t0 }
    in
    Telemetry.count "supervisor.attempts" 1;
    match
      await
        (spawn ?telemetry_prefix ~timeout_s:policy.timeout_s ~name (fun () ->
             f ~degraded))
    with
    | Ok v -> outcome (Ok v)
    | Error e when n <= policy.retries && retryable e ->
        Telemetry.count "supervisor.retries" 1;
        let msg =
          Format.asprintf "supervisor: %s attempt %d failed (%a), retrying degraded"
            name n E.pp e
        in
        (* With the journal on, the retry notice is an event (echoed per
           --log-level); without it, keep the historical stderr warning. *)
        if Journal.enabled () then
          Journal.emit ~level:Info ~msg Journal.Worker_retry
            [
              ("worker", name);
              ("attempt", string_of_int n);
              ("error", E.code_name e.E.code);
            ]
        else Format.eprintf "%s@." msg;
        go (n + 1)
    | Error e -> outcome (Error (E.with_context e [ ("attempts", string_of_int n) ]))
  in
  go 1
