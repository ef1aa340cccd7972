module T = Telemetry
module J = Checkpoint

let us s = s *. 1e6

(* One X event per span node; children are laid out sequentially from the
   parent's start so the tree shape and the measured durations survive
   even though Telemetry aggregates by path rather than timestamping
   individual calls. *)
let rec span_events ~pid ~start (s : T.span) acc =
  let ev =
    J.Obj
      [
        ("name", J.Str s.T.span_name);
        ("cat", J.Str "span");
        ("ph", J.Str "X");
        ("ts", J.Num (us start));
        ("dur", J.Num (us s.T.total_s));
        ("pid", J.Num (float_of_int pid));
        ("tid", J.Num 0.0);
        ("args", J.Obj [ ("calls", J.Num (float_of_int s.T.calls)) ]);
      ]
  in
  let acc, _ =
    List.fold_left
      (fun (acc, cursor) (child : T.span) ->
        (span_events ~pid ~start:cursor child acc, cursor +. child.T.total_s))
      (acc, start) s.T.children
  in
  ev :: acc

let instant_event ~t0 (ev : Journal.event) =
  J.Obj
    [
      ("name", J.Str (Journal.kind_name ev.Journal.ev_kind));
      ("cat", J.Str "journal");
      ("ph", J.Str "i");
      ("ts", J.Num (us (ev.Journal.ev_time -. t0)));
      ("pid", J.Num (float_of_int ev.Journal.ev_pid));
      ("tid", J.Num 0.0);
      ("s", J.Str "p");
      ( "args",
        J.Obj
          (("level", J.Str (Journal.level_name ev.Journal.ev_level))
          :: ("seq", J.Str (string_of_int ev.Journal.ev_seq))
          :: List.map (fun (k, v) -> (k, J.Str v)) ev.Journal.ev_fields) );
    ]

let process_name ~pid name =
  J.Obj
    [
      ("name", J.Str "process_name");
      ("ph", J.Str "M");
      ("pid", J.Num (float_of_int pid));
      ("tid", J.Num 0.0);
      ("args", J.Obj [ ("name", J.Str name) ]);
    ]

let to_trace ?(events = []) (p : T.profile) =
  let t0 =
    List.fold_left
      (fun acc ev -> Float.min acc ev.Journal.ev_time)
      infinity events
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let main_pid =
    match
      List.find_opt
        (fun ev -> ev.Journal.ev_kind = Journal.Run_started)
        events
    with
    | Some ev -> ev.Journal.ev_pid
    | None -> ( match events with ev :: _ -> ev.Journal.ev_pid | [] -> 0)
  in
  (* Anchors for span subtrees, keyed by worker name, from each
     [worker_spawned] event: a shard's subtree is named for its worker
     (the shard id), a sliced daemon request's for its worker ([req-<n>]). The
     last spawn wins: a retry re-spawns the same shard, and the merged
     tree holds only the attempts that returned a profile. *)
  let spawns =
    List.filter_map
      (fun ev ->
        match
          ( Journal.find ev "worker",
            Option.bind (Journal.find ev "worker_pid") int_of_string_opt )
        with
        | Some name, Some pid when ev.Journal.ev_kind = Journal.Worker_spawned
          ->
            Some (name, (pid, ev.Journal.ev_time -. t0))
        | _ -> None)
      events
  in
  let latest = List.rev spawns in
  let metadata =
    process_name ~pid:main_pid "cntpower (driver)"
    :: List.filter_map
         (fun (name, (pid, _)) ->
           if pid <> main_pid then Some (process_name ~pid ("worker: " ^ name))
           else None)
         spawns
  in
  let spans, _ =
    List.fold_left
      (fun (acc, cursor) (s : T.span) ->
        match List.assoc_opt s.T.span_name latest with
        | Some (pid, start) -> (span_events ~pid ~start s acc, cursor)
        | None ->
            ( span_events ~pid:main_pid ~start:cursor s acc,
              cursor +. s.T.total_s ))
      ([], 0.0) p.T.p_spans
  in
  let instants = List.map (instant_event ~t0) events in
  J.Obj
    [
      ("traceEvents", J.Arr (metadata @ List.rev spans @ instants));
      ("displayTimeUnit", J.Str "ms");
    ]

let save ~path ?events p =
  J.write_atomic ~path (J.json_to_string_compact (to_trace ?events p) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Per-request slicing                                                 *)

(* The queue log's transitions name a shard, everything else its worker. *)
let names worker ev =
  Journal.find ev "worker" = Some worker
  || Journal.find ev "shard" = Some worker

let resolve ~events arg =
  if List.exists (names arg) events then Some arg
  else
    List.find_map
      (fun ev ->
        if Journal.find ev "request" = Some arg then Journal.find ev "worker"
        else None)
      events

(* A worker whose profile was folded into an aggregate (a daemon
   request's, under [serve.request]) keeps its stage times on its last
   [worker_exited] event as [span:<name>=<seconds>] fields; its subtree
   spans the journal's spawn to that exit. *)
let rebuild ~worker events =
  let last kind = List.find_opt (fun ev -> ev.Journal.ev_kind = kind) (List.rev events) in
  let stage (k, v) =
    match (String.starts_with ~prefix:"span:" k, float_of_string_opt v) with
    | true, Some total_s ->
        let span_name = String.sub k 5 (String.length k - 5) in
        Some { T.span_name; calls = 1; total_s; children = [] }
    | _ -> None
  in
  match (last Journal.Worker_spawned, last Journal.Worker_exited) with
  | Some spawned, Some exited -> (
      match List.filter_map stage exited.Journal.ev_fields with
      | [] -> []
      | children ->
          let total_s = exited.Journal.ev_time -. spawned.Journal.ev_time in
          [ { T.span_name = worker; calls = 1; total_s; children } ])
  | _ -> []

let slice ~worker ?(events = []) (p : T.profile) =
  let rec collect acc (s : T.span) =
    if s.T.span_name = worker then s :: acc
    else List.fold_left collect acc s.T.children
  in
  let events = List.filter (names worker) events in
  let spans =
    match List.rev (List.fold_left collect [] p.T.p_spans) with
    | [] -> rebuild ~worker events
    | spans -> spans
  in
  ({ T.p_spans = spans; p_counters = []; p_dists = [] }, events)
