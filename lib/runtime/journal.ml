module E = Cnt_error
module J = Checkpoint

type level = Debug | Info | Warn

type kind =
  | Run_started
  | Run_finished
  | Worker_spawned
  | Worker_exited
  | Worker_timeout
  | Worker_killed
  | Checkpoint_written
  | Solver_damped_retry
  | Golden_drift
  | Server_started
  | Server_draining
  | Server_stopped
  | Request_admitted
  | Request_rejected
  | Request_done
  | Overload_shed
  | Worker_respawned
  | Breaker_tripped
  | Shard_enqueued
  | Shard_leased
  | Shard_done
  | Shard_failed
  | Shard_quarantined
  | Lease_reclaimed
  | Custom of string

type event = {
  ev_seq : int;
  ev_time : float;
  ev_pid : int;
  ev_level : level;
  ev_kind : kind;
  ev_fields : (string * string) list;
}

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

let kind_name = function
  | Run_started -> "run_started"
  | Run_finished -> "run_finished"
  | Worker_spawned -> "worker_spawned"
  | Worker_exited -> "worker_exited"
  | Worker_timeout -> "worker_timeout"
  | Worker_killed -> "worker_killed"
  | Checkpoint_written -> "checkpoint_written"
  | Solver_damped_retry -> "solver_damped_retry"
  | Golden_drift -> "golden_drift"
  | Server_started -> "server_started"
  | Server_draining -> "server_draining"
  | Server_stopped -> "server_stopped"
  | Request_admitted -> "request_admitted"
  | Request_rejected -> "request_rejected"
  | Request_done -> "request_done"
  | Overload_shed -> "overload_shed"
  | Worker_respawned -> "worker_respawned"
  | Breaker_tripped -> "breaker_tripped"
  | Shard_enqueued -> "shard_enqueued"
  | Shard_leased -> "shard_leased"
  | Shard_done -> "shard_done"
  | Shard_failed -> "shard_failed"
  | Shard_quarantined -> "shard_quarantined"
  | Lease_reclaimed -> "lease_reclaimed"
  | Custom s -> s

let kind_of_name = function
  | "run_started" -> Run_started
  | "run_finished" -> Run_finished
  | "worker_spawned" -> Worker_spawned
  | "worker_exited" -> Worker_exited
  | "worker_timeout" -> Worker_timeout
  | "worker_killed" -> Worker_killed
  | "checkpoint_written" -> Checkpoint_written
  | "solver_damped_retry" -> Solver_damped_retry
  | "golden_drift" -> Golden_drift
  | "server_started" -> Server_started
  | "server_draining" -> Server_draining
  | "server_stopped" -> Server_stopped
  | "request_admitted" -> Request_admitted
  | "request_rejected" -> Request_rejected
  | "request_done" -> Request_done
  | "overload_shed" -> Overload_shed
  | "worker_respawned" -> Worker_respawned
  | "breaker_tripped" -> Breaker_tripped
  | "shard_enqueued" -> Shard_enqueued
  | "shard_leased" -> Shard_leased
  | "shard_done" -> Shard_done
  | "shard_failed" -> Shard_failed
  | "shard_quarantined" -> Shard_quarantined
  | "lease_reclaimed" -> Lease_reclaimed
  | other -> Custom other

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let on = ref false
let seq = ref 0
let sink : out_channel option ref = ref None
let capture : event list ref option ref = ref None
let echo_threshold : level option ref = ref (Some Info)

(* Rotation state: remembered so [write_line] can roll the sink over
   when it crosses the size bound. [sink_bytes] is seeded from the file
   size at open (the sink appends) and counted per line thereafter. *)
let sink_path : string option ref = ref None
let rot_max_bytes : int option ref = ref None
let rot_keep = ref 4
let sink_bytes = ref 0

let enabled () = !on
let set_enabled b = on := b
let set_verbosity v = echo_threshold := v
let verbosity () = !echo_threshold

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let event_to_json ev =
  J.Obj
    [
      ("seq", J.Num (float_of_int ev.ev_seq));
      ("t", J.Num ev.ev_time);
      ("pid", J.Num (float_of_int ev.ev_pid));
      ("level", J.Str (level_name ev.ev_level));
      ("event", J.Str (kind_name ev.ev_kind));
      ("fields", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) ev.ev_fields));
    ]

let ( let* ) = Result.bind

let event_of_json j =
  let* seq = Result.bind (J.field j "seq") (J.as_num "seq") in
  let* ev_time = Result.bind (J.field j "t") (J.as_num "t") in
  let* pid = Result.bind (J.field j "pid") (J.as_num "pid") in
  let* level_str = Result.bind (J.field j "level") (J.as_str "level") in
  let* ev_level =
    match level_of_name level_str with
    | Some l -> Ok l
    | None -> E.error E.Cli E.Parse_error "unknown event level %S" level_str
  in
  let* kind_str = Result.bind (J.field j "event") (J.as_str "event") in
  let* ev_fields =
    match J.field j "fields" with
    | Ok (J.Obj fields) ->
        J.map_result
          (fun (k, v) ->
            let* s = J.as_str k v in
            Ok (k, s))
          fields
    | Ok _ -> E.error E.Cli E.Parse_error "field \"fields\" must be an object"
    | Error e -> Error e
  in
  Ok
    {
      ev_seq = int_of_float seq;
      ev_time;
      ev_pid = int_of_float pid;
      ev_level;
      ev_kind = kind_of_name kind_str;
      ev_fields;
    }

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)

let close_sink () =
  match !sink with
  | None -> ()
  | Some oc ->
      sink := None;
      sink_path := None;
      (try close_out oc with Sys_error _ -> ())

let rotated_path path i = Printf.sprintf "%s.%d" path i

let open_sink ?max_bytes ?(keep = 4) ~path () =
  close_sink ();
  let* oc = J.open_jsonl ~path in
  sink := Some oc;
  sink_path := Some path;
  rot_max_bytes := max_bytes;
  rot_keep := max 1 keep;
  sink_bytes := (try out_channel_length oc with Sys_error _ -> 0);
  Ok ()

(* Roll the live file to [path.1], shifting [path.i] to [path.i+1] and
   dropping the oldest segment past [keep]. Best-effort: a rotation that
   fails (permissions, races) leaves the journal appending to the live
   file rather than losing events. *)
let rotate_sink path =
  (match !sink with
  | None -> ()
  | Some oc ->
      sink := None;
      (try close_out oc with Sys_error _ -> ()));
  let keep = !rot_keep in
  (try
     let oldest = rotated_path path keep in
     if Sys.file_exists oldest then Sys.remove oldest
   with Sys_error _ -> ());
  for i = keep - 1 downto 1 do
    let src = rotated_path path i in
    if Sys.file_exists src then
      try Sys.rename src (rotated_path path (i + 1)) with Sys_error _ -> ()
  done;
  (try Sys.rename path (rotated_path path 1) with Sys_error _ -> ());
  (match J.open_jsonl ~path with Ok oc -> sink := Some oc | Error _ -> ());
  sink_bytes := 0

let write_line ev =
  match !sink with
  | None -> ()
  | Some oc -> (
      sink_bytes := !sink_bytes + J.append_jsonl oc (event_to_json ev);
      match (!rot_max_bytes, !sink_path) with
      | Some limit, Some path when !sink_bytes >= limit -> rotate_sink path
      | _ -> ())

let append_events evs = List.iter write_line evs

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let pp_event ppf ev =
  Format.fprintf ppf "%s" (kind_name ev.ev_kind);
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) ev.ev_fields

let echoes level =
  match !echo_threshold with
  | None -> false
  | Some th -> level_rank level >= level_rank th

let emit ?(level = Info) ?msg kind fields =
  if !on then begin
    incr seq;
    let ev =
      {
        ev_seq = !seq;
        ev_time = Unix.gettimeofday ();
        ev_pid = Unix.getpid ();
        ev_level = level;
        ev_kind = kind;
        ev_fields = fields;
      }
    in
    (match !capture with
    | Some buf -> buf := ev :: !buf
    | None -> write_line ev);
    if echoes level then
      match msg with
      | Some m -> Format.eprintf "journal: %s@." m
      | None -> Format.eprintf "journal: %a@." pp_event ev
  end

let begin_capture () =
  if !on then begin
    (* The inherited channel shares the parent's file description; the
       worker must never write through it. Dropping the reference (without
       closing: closing would flush shared state) is enough — the worker
       _exits without running at_exit. *)
    sink := None;
    capture := Some (ref []);
    seq := 0
  end

let end_capture () =
  match !capture with
  | None -> []
  | Some buf ->
      capture := None;
      List.rev !buf

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let find ev name = List.assoc_opt name ev.ev_fields

let load ~path =
  let* live, skipped = J.read_jsonl event_of_json path in
  (* Rotated segments, oldest (highest index) first, then the live file:
     [load] sees one logical journal in append order. A rotated segment
     that vanishes mid-read (a concurrent rotation) is tolerated; only
     the live file being unreadable is an error. *)
  let rec segments i acc =
    let p = rotated_path path i in
    if Sys.file_exists p then segments (i + 1) (p :: acc) else acc
  in
  let rotated =
    List.filter_map
      (fun p -> Result.to_option (J.read_jsonl event_of_json p))
      (segments 1 [])
  in
  Ok
    ( List.concat_map fst rotated @ live,
      List.fold_left (fun n (_, k) -> n + k) skipped rotated )
