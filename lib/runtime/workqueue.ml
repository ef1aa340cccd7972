module E = Cnt_error
module J = Checkpoint
module Jn = Journal

type state = Enqueued | Leased | Done | Failed | Quarantined

let state_name = function
  | Enqueued -> "enqueued"
  | Leased -> "leased"
  | Done -> "done"
  | Failed -> "failed"
  | Quarantined -> "quarantined"

let all_states = [ Enqueued; Leased; Done; Failed; Quarantined ]
let state_of_name s = List.find_opt (fun st -> state_name st = s) all_states

type record = {
  rc_time : float;
  rc_pid : int;
  rc_shard : string;
  rc_state : state;
  rc_attempt : int;
  rc_fields : (string * string) list;
}

type status = {
  mutable st_state : state;
  mutable st_attempts : int;
  mutable st_fields : (string * string) list;
}

type t = {
  wq_oc : out_channel;
  wq_tbl : (string, status) Hashtbl.t;
  mutable wq_order : string list;  (* first-enqueue order, reversed *)
}

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let record_to_json rc =
  J.Obj
    [
      ("t", J.Num rc.rc_time);
      ("pid", J.Num (float_of_int rc.rc_pid));
      ("shard", J.Str rc.rc_shard);
      ("state", J.Str (state_name rc.rc_state));
      ("attempt", J.Num (float_of_int rc.rc_attempt));
      ("fields", J.obj (fun v -> J.Str v) rc.rc_fields);
    ]

let ( let* ) = Result.bind

let record_of_json j =
  let* rc_time = J.num_field j "t" in
  let* pid = J.num_field j "pid" in
  let* rc_shard = J.str_field j "shard" in
  let* state_str = J.str_field j "state" in
  let* rc_state =
    match state_of_name state_str with
    | Some s -> Ok s
    | None -> E.error E.Cli E.Parse_error "unknown shard state %S" state_str
  in
  let* attempt = J.num_field j "attempt" in
  let* rc_fields = J.obj_field J.as_str j "fields" in
  Ok
    {
      rc_time;
      rc_pid = int_of_float pid;
      rc_shard;
      rc_state;
      rc_attempt = int_of_float attempt;
      rc_fields;
    }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let apply tbl order rc =
  let st =
    match Hashtbl.find_opt tbl rc.rc_shard with
    | Some st -> st
    | None ->
        let st = { st_state = rc.rc_state; st_attempts = 0; st_fields = [] } in
        Hashtbl.add tbl rc.rc_shard st;
        order := rc.rc_shard :: !order;
        st
  in
  st.st_state <- rc.rc_state;
  (match rc.rc_state with
  | Enqueued -> st.st_attempts <- 0
  | Leased -> st.st_attempts <- max st.st_attempts rc.rc_attempt
  | Done | Quarantined -> st.st_fields <- rc.rc_fields
  | Failed -> ())

let load ~path = J.read_jsonl record_of_json path

let open_ ~path =
  let* records, skipped =
    if Sys.file_exists path then load ~path else Ok ([], 0)
  in
  let* oc = J.open_jsonl ~path in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter (apply tbl order) records;
  Ok ({ wq_oc = oc; wq_tbl = tbl; wq_order = !order }, skipped)

let close t = try close_out t.wq_oc with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

let append t rc =
  ignore (J.append_jsonl t.wq_oc (record_to_json rc));
  let order = ref t.wq_order in
  apply t.wq_tbl order rc;
  t.wq_order <- !order

let journal_kind = function
  | Enqueued -> (Jn.Shard_enqueued, Jn.Debug)
  | Leased -> (Jn.Shard_leased, Jn.Debug)
  | Done -> (Jn.Shard_done, Jn.Info)
  | Failed -> (Jn.Shard_failed, Jn.Warn)
  | Quarantined -> (Jn.Shard_quarantined, Jn.Warn)

let transition t shard state ~attempt ~fields =
  append t
    {
      rc_time = Unix.gettimeofday ();
      rc_pid = Unix.getpid ();
      rc_shard = shard;
      rc_state = state;
      rc_attempt = attempt;
      rc_fields = fields;
    };
  if Jn.enabled () then begin
    let kind, level = journal_kind state in
    (* A done record carries every result scalar; its live echo names the
       shard, the attempt and the wall time only. *)
    let msg =
      match (state, List.assoc_opt "wall_s" fields) with
      | Done, Some wall_s ->
          Some
            (Printf.sprintf "shard_done %s attempt=%d wall_s=%s" shard attempt
               wall_s)
      | _ -> None
    in
    Jn.emit ~level ?msg kind
      (("shard", shard) :: ("attempt", string_of_int attempt) :: fields)
  end

let state t shard =
  Option.map (fun st -> st.st_state) (Hashtbl.find_opt t.wq_tbl shard)

let enqueue t shard =
  match state t shard with
  | Some (Enqueued | Leased) -> false
  | _ ->
      transition t shard Enqueued ~attempt:0 ~fields:[];
      true

let attempts t shard =
  match Hashtbl.find_opt t.wq_tbl shard with
  | Some st -> st.st_attempts
  | None -> 0

let lease t shard =
  let attempt = attempts t shard + 1 in
  transition t shard Leased ~attempt ~fields:[];
  attempt

let mark_done t shard ~fields =
  transition t shard Done ~attempt:(attempts t shard) ~fields

let mark_failed t shard ~fields =
  transition t shard Failed ~attempt:(attempts t shard) ~fields

let mark_quarantined t shard ~fields =
  transition t shard Quarantined ~attempt:(attempts t shard) ~fields

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let fields t shard =
  match Hashtbl.find_opt t.wq_tbl shard with
  | Some st -> st.st_fields
  | None -> []

let shards t = List.rev t.wq_order

let count t state =
  Hashtbl.fold
    (fun _ st n -> if st.st_state = state then n + 1 else n)
    t.wq_tbl 0

let ready t =
  List.filter
    (fun shard ->
      match state t shard with
      | Some (Enqueued | Failed) -> true
      | _ -> false)
    (shards t)

let leased t = List.filter (fun shard -> state t shard = Some Leased) (shards t)
