module E = Cnt_error
module J = Checkpoint

(* ------------------------------------------------------------------ *)
(* Snapshot types (plain data: marshal- and JSON-friendly)             *)

type span = {
  span_name : string;
  calls : int;
  total_s : float;
  children : span list;
}

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_samples : float array;
}

type profile = {
  p_spans : span list;
  p_counters : (string * int) list;
  p_dists : (string * dist) list;
}

let max_samples = 512

(* ------------------------------------------------------------------ *)
(* Live registry                                                       *)

type node = {
  n_name : string;
  mutable n_calls : int;
  mutable n_total : float;
  n_children : (string, node) Hashtbl.t;
}

(* Distribution accumulator with a deterministic systematic sample: keep
   every [stride]-th observation; when the buffer fills, drop every other
   retained sample and double the stride. Uniform-ish coverage of the
   stream without randomness. *)
type dstate = {
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  s_samples : float array;
  mutable s_stored : int;
  mutable s_stride : int;
  mutable s_since : int;  (* observations since the last retained one *)
}

let fresh_node name =
  { n_name = name; n_calls = 0; n_total = 0.0; n_children = Hashtbl.create 8 }

(* The whole mutable state lives in a per-domain registry: the main domain
   owns the process-wide registry (exactly the old global behavior), and
   every domain spawned by {!Dpool} gets a fresh one on first use, so
   parallel simulation kernels never race on the hashtables or lose
   counter increments. A worker domain snapshots its registry before
   joining and the pool merges it into the spawner's — the same
   snapshot/merge path already used for forked supervisor workers. *)
type registry = {
  mutable g_root : node;
  mutable g_stack : node list;
  g_counters : (string, int ref) Hashtbl.t;
  g_dists : (string, dstate) Hashtbl.t;
}

let fresh_registry () =
  {
    g_root = fresh_node "";
    g_stack = [];
    g_counters = Hashtbl.create 32;
    g_dists = Hashtbl.create 16;
  }

let registry_key = Domain.DLS.new_key fresh_registry
let registry () = Domain.DLS.get registry_key

(* The enabled flag is shared across domains; it is only flipped outside
   parallel sections (CLI setup, bench harness), and Domain.spawn/join
   establish the needed happens-before edges for workers to observe it. *)
let on = ref false

let enabled () = !on
let set_enabled b = on := b

let reset () =
  let r = registry () in
  r.g_root <- fresh_node "";
  r.g_stack <- [];
  Hashtbl.reset r.g_counters;
  Hashtbl.reset r.g_dists

let now () = Unix.gettimeofday ()

let child_of parent name =
  match Hashtbl.find_opt parent.n_children name with
  | Some n -> n
  | None ->
      let n = fresh_node name in
      Hashtbl.replace parent.n_children name n;
      n

let with_span name f =
  if not !on then f ()
  else begin
    let r = registry () in
    let parent = match r.g_stack with n :: _ -> n | [] -> r.g_root in
    let node = child_of parent name in
    let t0 = Unix.gettimeofday () in
    r.g_stack <- node :: r.g_stack;
    Fun.protect
      ~finally:(fun () ->
        node.n_calls <- node.n_calls + 1;
        node.n_total <- node.n_total +. (Unix.gettimeofday () -. t0);
        match r.g_stack with _ :: rest -> r.g_stack <- rest | [] -> ())
      f
  end

let count name n =
  if !on then
    let counters = (registry ()).g_counters in
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace counters name (ref n)

let fresh_dstate () =
  {
    s_count = 0;
    s_sum = 0.0;
    s_min = infinity;
    s_max = neg_infinity;
    s_samples = Array.make max_samples 0.0;
    s_stored = 0;
    s_stride = 1;
    s_since = 0;
  }

let dstate_add d v =
  d.s_count <- d.s_count + 1;
  d.s_sum <- d.s_sum +. v;
  if v < d.s_min then d.s_min <- v;
  if v > d.s_max then d.s_max <- v;
  d.s_since <- d.s_since + 1;
  if d.s_since >= d.s_stride then begin
    d.s_since <- 0;
    if d.s_stored = max_samples then begin
      let kept = ref 0 in
      for i = 0 to max_samples - 1 do
        if i land 1 = 0 then begin
          d.s_samples.(!kept) <- d.s_samples.(i);
          incr kept
        end
      done;
      d.s_stored <- !kept;
      d.s_stride <- d.s_stride * 2
    end;
    d.s_samples.(d.s_stored) <- v;
    d.s_stored <- d.s_stored + 1
  end

let find_dstate name =
  let dists = (registry ()).g_dists in
  match Hashtbl.find_opt dists name with
  | Some d -> d
  | None ->
      let d = fresh_dstate () in
      Hashtbl.replace dists name d;
      d

let observe name v = if !on then dstate_add (find_dstate name) v

(* ------------------------------------------------------------------ *)
(* Snapshot & merge                                                    *)

let rec span_of_node n =
  let children =
    Hashtbl.fold (fun _ c acc -> span_of_node c :: acc) n.n_children []
    |> List.sort (fun a b -> compare b.total_s a.total_s)
  in
  { span_name = n.n_name; calls = n.n_calls; total_s = n.n_total; children }

let dist_of_dstate d =
  {
    d_count = d.s_count;
    d_sum = d.s_sum;
    d_min = d.s_min;
    d_max = d.s_max;
    d_samples = Array.sub d.s_samples 0 d.s_stored;
  }

let sorted_assoc tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  let r = registry () in
  {
    p_spans = (span_of_node r.g_root).children;
    p_counters = sorted_assoc r.g_counters (fun c -> !c);
    p_dists = sorted_assoc r.g_dists dist_of_dstate;
  }

let rec merge_span parent s =
  let node = child_of parent s.span_name in
  node.n_calls <- node.n_calls + s.calls;
  node.n_total <- node.n_total +. s.total_s;
  List.iter (merge_span node) s.children

let merge_dist name (d : dist) =
  let s = find_dstate name in
  s.s_count <- s.s_count + d.d_count;
  s.s_sum <- s.s_sum +. d.d_sum;
  if d.d_min < s.s_min then s.s_min <- d.d_min;
  if d.d_max > s.s_max then s.s_max <- d.d_max;
  (* Interleave the incoming samples with the retained ones, bounded. *)
  Array.iter
    (fun v ->
      if s.s_stored < max_samples then begin
        s.s_samples.(s.s_stored) <- v;
        s.s_stored <- s.s_stored + 1
      end)
    d.d_samples

let merge ?(prefix = []) p =
  let reg = registry () in
  let anchor =
    List.fold_left (fun parent name -> child_of parent name) reg.g_root prefix
  in
  List.iter (merge_span anchor) p.p_spans;
  List.iter
    (fun (name, n) ->
      match Hashtbl.find_opt reg.g_counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace reg.g_counters name (ref n))
    p.p_counters;
  List.iter (fun (name, d) -> merge_dist name d) p.p_dists

(* ------------------------------------------------------------------ *)
(* Derived statistics                                                  *)

let mean d = if d.d_count = 0 then 0.0 else d.d_sum /. float_of_int d.d_count

let percentile d q =
  let n = Array.length d.d_samples in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy d.d_samples in
    Array.sort compare sorted;
    let rank = int_of_float (Float.of_int (n - 1) *. q +. 0.5) in
    sorted.(max 0 (min (n - 1) rank))
  end

let find_counter p name = List.assoc_opt name p.p_counters
let find_dist p name = List.assoc_opt name p.p_dists

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let rec span_to_json s =
  J.Obj
    [
      ("name", J.Str s.span_name);
      ("calls", J.Num (float_of_int s.calls));
      ("total_s", J.Num s.total_s);
      ("children", J.Arr (List.map span_to_json s.children));
    ]

let dist_to_json (name, d) =
  J.Obj
    [
      ("name", J.Str name);
      ("count", J.Num (float_of_int d.d_count));
      ("sum", J.Num d.d_sum);
      ("min", J.Num (if d.d_count = 0 then 0.0 else d.d_min));
      ("max", J.Num (if d.d_count = 0 then 0.0 else d.d_max));
      (* Derived conveniences for downstream readers; recomputed on load. *)
      ("mean", J.Num (mean d));
      ("p50", J.Num (percentile d 0.5));
      ("p95", J.Num (percentile d 0.95));
      ("samples", J.Arr (Array.to_list (Array.map (fun v -> J.Num v) d.d_samples)));
    ]

let to_json p =
  J.Obj
    [
      ("version", J.Num 1.0);
      ("spans", J.Arr (List.map span_to_json p.p_spans));
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) p.p_counters)
      );
      ("dists", J.Arr (List.map dist_to_json p.p_dists));
    ]

let ( let* ) = Result.bind

let field j name = J.field j name
let as_num = J.as_num
let as_str = J.as_str
let as_arr = J.as_arr

let rec span_of_json j =
  let* span_name = Result.bind (field j "name") (as_str "name") in
  let* calls = Result.bind (field j "calls") (as_num "calls") in
  let* total_s = Result.bind (field j "total_s") (as_num "total_s") in
  let* children_json = Result.bind (field j "children") (as_arr "children") in
  let* children = J.map_result span_of_json children_json in
  Ok { span_name; calls = int_of_float calls; total_s; children }

let dist_of_json j =
  let* name = Result.bind (field j "name") (as_str "name") in
  let* c = Result.bind (field j "count") (as_num "count") in
  let* d_sum = Result.bind (field j "sum") (as_num "sum") in
  let* d_min = Result.bind (field j "min") (as_num "min") in
  let* d_max = Result.bind (field j "max") (as_num "max") in
  let* samples_json = Result.bind (field j "samples") (as_arr "samples") in
  let* samples =
    J.map_result
      (function
        | J.Num v -> Ok v
        | _ -> E.error E.Cli E.Parse_error "dist samples must be numbers")
      samples_json
  in
  let d_count = int_of_float c in
  Ok
    ( name,
      {
        d_count;
        d_sum;
        d_min = (if d_count = 0 then infinity else d_min);
        d_max = (if d_count = 0 then neg_infinity else d_max);
        d_samples = Array.of_list samples;
      } )

let of_json j =
  let* spans_json = Result.bind (field j "spans") (as_arr "spans") in
  let* p_spans = J.map_result span_of_json spans_json in
  let* p_counters =
    match field j "counters" with
    | Ok (J.Obj fields) ->
        J.map_result
          (fun (k, v) ->
            let* f = as_num k v in
            Ok (k, int_of_float f))
          fields
    | Ok _ -> E.error E.Cli E.Parse_error "field \"counters\" must be an object"
    | Error e -> Error e
  in
  let* dists_json = Result.bind (field j "dists") (as_arr "dists") in
  let* p_dists = J.map_result dist_of_json dists_json in
  Ok { p_spans; p_counters; p_dists }

let save ~path p = J.write_atomic ~path (J.json_to_string (to_json p))

let load ~path =
  let* text = J.read_file path in
  match
    let* j = J.json_of_string text in
    of_json j
  with
  | Ok _ as ok -> ok
  | Error e -> Error (E.with_context e [ ("path", path) ])

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_duration ppf s =
  if s >= 1.0 then Format.fprintf ppf "%.2fs" s
  else if s >= 1e-3 then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else Format.fprintf ppf "%.0fus" (s *. 1e6)

let pp ppf p =
  Format.fprintf ppf "span tree (calls, total wall):@.";
  if p.p_spans = [] then Format.fprintf ppf "  (no spans recorded)@.";
  let rec pp_span depth s =
    Format.fprintf ppf "  %s%-*s %6d  %a@."
      (String.make (2 * depth) ' ')
      (max 1 (36 - (2 * depth)))
      s.span_name s.calls pp_duration s.total_s;
    List.iter (pp_span (depth + 1)) s.children
  in
  List.iter (pp_span 0) p.p_spans;
  if p.p_counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    let top =
      List.sort (fun (_, a) (_, b) -> compare b a) p.p_counters
    in
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %d@." name v)
      top
  end;
  if p.p_dists <> [] then begin
    Format.fprintf ppf "distributions:@.";
    List.iter
      (fun (name, d) ->
        Format.fprintf ppf
          "  %-36s n=%d mean=%.4g p50=%.4g p95=%.4g min=%.4g max=%.4g@." name
          d.d_count (mean d) (percentile d 0.5) (percentile d 0.95)
          (if d.d_count = 0 then 0.0 else d.d_min)
          (if d.d_count = 0 then 0.0 else d.d_max))
      p.p_dists
  end
