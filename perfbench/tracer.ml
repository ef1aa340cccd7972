(* The benchmark's own span recorder.

   Spans are kept in memory while a replay runs and written out once at
   the end. Each span links to the span that was open when it started,
   so self time (a span's duration minus its children's) falls out of
   the parent links. The recorder also times its own bookkeeping: that
   sum is what tracing adds to the replay's wall time. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let on = ref false
let next_id = ref 0
let open_spans : int list ref = ref []
let closed : span list ref = ref []
let cost = ref 0.0

let now = Unix.gettimeofday

let span name f =
  if not !on then f ()
  else begin
    let enter = now () in
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    cost := !cost +. (t0 -. enter);
    let finish () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      closed := { id; parent; name; t0; t1 } :: !closed;
      cost := !cost +. (now () -. t1)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

type layer = { total_s : float; self_s : float; calls : int }

(* Per span name: total and self time and call count. *)
let layers () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !closed;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let l =
        Option.value
          ~default:{ total_s = 0.0; self_s = 0.0; calls = 0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { total_s = l.total_s +. d; self_s = l.self_s +. self; calls = l.calls + 1 })
    !closed;
  by_name

(* Sum of the durations of spans that have no parent. *)
let top_level_s () =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
    0.0 !closed

(* Chrome trace_event JSON, one complete ("X") event per span. *)
let write path =
  let oc = open_out path in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !closed
  in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev !closed);
  output_string oc "]}\n";
  close_out oc
