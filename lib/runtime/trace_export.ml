module T = Telemetry
module J = Checkpoint

let us s = s *. 1e6

(* One X event per span node; children are laid out sequentially from the
   parent's start so the tree shape and the measured durations survive
   even though Telemetry aggregates by path rather than timestamping
   individual calls. A child whose name has its own anchor in [starts] —
   a per-request [trace:<id>] subtree whose worker spawn the journal
   timestamped — is promoted onto that track instead of being laid
   inline, giving one causally-linked lane per request/shard. *)
let rec span_events ~starts ~pid ~start (s : T.span) acc =
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
        match List.assoc_opt child.T.span_name starts with
        | Some (cpid, cstart) when cpid <> pid ->
            (span_events ~starts ~pid:cpid ~start:cstart child acc, cursor)
        | _ ->
            ( span_events ~starts ~pid ~start:cursor child acc,
              cursor +. child.T.total_s ))
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
  (* Anchors for span subtrees, keyed by span name. Two sources: an
     experiment's last [experiment_started] (last wins: a retry
     re-starts the same experiment, and the merged tree holds only the
     attempt that returned), and a request/shard's [worker_spawned]
     carrying trace fields — the latter anchors the [trace:<id>]
     telemetry subtree on the worker's PID track. *)
  let starts =
    List.fold_left
      (fun acc ev ->
        match ev.Journal.ev_kind with
        | Journal.Experiment_started -> (
            match Journal.find ev "experiment" with
            | Some exp ->
                (exp, (ev.Journal.ev_pid, ev.Journal.ev_time -. t0))
                :: List.remove_assoc exp acc
            | None -> acc)
        | Journal.Worker_spawned -> (
            match
              ( Journal.find ev "trace",
                Option.bind (Journal.find ev "worker_pid") int_of_string_opt )
            with
            | Some id, Some wpid when not (List.mem_assoc ("trace:" ^ id) acc)
              ->
                ("trace:" ^ id, (wpid, ev.Journal.ev_time -. t0)) :: acc
            | _ -> acc)
        | _ -> acc)
      [] events
  in
  let metadata =
    process_name ~pid:main_pid "cntpower (driver)"
    :: List.filter_map
         (fun (exp, (pid, _)) ->
           if pid = main_pid then None
           else Some (process_name ~pid ("worker: " ^ exp)))
         starts
  in
  let spans, _ =
    List.fold_left
      (fun (acc, cursor) (s : T.span) ->
        match List.assoc_opt s.T.span_name starts with
        | Some (pid, start) -> (span_events ~starts ~pid ~start s acc, cursor)
        | None ->
            ( span_events ~starts ~pid:main_pid ~start:cursor s acc,
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

let resolve_trace_id ~events arg =
  let has_trace id =
    List.exists (fun ev -> Journal.find ev "trace" = Some id) events
  in
  if has_trace arg then Some arg
  else
    (* Not a trace id: try it as a request number and read the trace id
       off any journal event of that request. *)
    List.find_map
      (fun ev ->
        if Journal.find ev "request" = Some arg then Journal.find ev "trace"
        else None)
      events

let rec collect_subtrees name acc (s : T.span) =
  let acc = if s.T.span_name = name then s :: acc else acc in
  List.fold_left (collect_subtrees name) acc s.T.children

let slice ~trace_id ?(events = []) (p : T.profile) =
  let label = "trace:" ^ trace_id in
  let spans = List.rev (List.fold_left (collect_subtrees label) [] p.T.p_spans) in
  let evs =
    List.filter (fun ev -> Journal.find ev "trace" = Some trace_id) events
  in
  ({ T.p_spans = spans; p_counters = []; p_dists = [] }, evs)
