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

let add_counter name n =
  let counters = (registry ()).g_counters in
  match Hashtbl.find_opt counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace counters name (ref n)

let count name n = if !on then add_counter name n

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

(* The sample half of an observation, shared by [observe] and [merge]. *)
let retain d v =
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

let dstate_add d v =
  d.s_count <- d.s_count + 1;
  d.s_sum <- d.s_sum +. v;
  if v < d.s_min then d.s_min <- v;
  if v > d.s_max then d.s_max <- v;
  retain d v

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

let counter name =
  match Hashtbl.find_opt (registry ()).g_counters name with
  | Some r -> !r
  | None -> 0

let counters () = sorted_assoc (registry ()).g_counters (fun c -> !c)
let dists () = sorted_assoc (registry ()).g_dists dist_of_dstate

let snapshot () =
  {
    p_spans = (span_of_node (registry ()).g_root).children;
    p_counters = counters ();
    p_dists = dists ();
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
  Array.iter (retain s) d.d_samples

let merge ?(prefix = []) p =
  let reg = registry () in
  let anchor =
    List.fold_left (fun parent name -> child_of parent name) reg.g_root prefix
  in
  List.iter (merge_span anchor) p.p_spans;
  List.iter (fun (name, n) -> add_counter name n) p.p_counters;
  List.iter (fun (name, d) -> merge_dist name d) p.p_dists

(* ------------------------------------------------------------------ *)
(* Derived statistics                                                  *)

let mean d = if d.d_count = 0 then 0.0 else d.d_sum /. float_of_int d.d_count

(* The [k]-th smallest of [a] by quickselect on a copy. Float compares
   on a [float array] box nothing, where [Array.sort] boxes every element
   it reads: a live snapshot summarizes every distribution each time. *)
let kth_smallest (a : float array) k =
  let a = Array.copy a in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

let percentile d q =
  let n = Array.length d.d_samples in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.of_int (n - 1) *. q +. 0.5) in
    kth_smallest d.d_samples (max 0 (min (n - 1) rank))

let find_counter p name = List.assoc_opt name p.p_counters
let find_dist p name = List.assoc_opt name p.p_dists

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summarize d =
  let empty = d.d_count = 0 in
  {
    count = d.d_count;
    sum = d.d_sum;
    mean = mean d;
    min = (if empty then 0.0 else d.d_min);
    max = (if empty then 0.0 else d.d_max);
    p50 = percentile d 0.5;
    p95 = percentile d 0.95;
  }

let summary_fields s =
  [
    ("count", J.Num (float_of_int s.count));
    ("sum", J.Num s.sum);
    ("min", J.Num s.min);
    ("max", J.Num s.max);
    ("mean", J.Num s.mean);
    ("p50", J.Num s.p50);
    ("p95", J.Num s.p95);
  ]

let flatten spans =
  let rec go prefix acc s =
    let path = prefix ^ s.span_name in
    List.fold_left (go (path ^ "/")) ((path, s) :: acc) s.children
  in
  List.rev (List.fold_left (go "") [] spans)

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
    ((("name", J.Str name) :: summary_fields (summarize d))
    @ [ ("samples", J.Arr (List.map (fun v -> J.Num v) (Array.to_list d.d_samples))) ])

let to_json p =
  J.Obj
    [
      ("version", J.Num 1.0);
      ("spans", J.Arr (List.map span_to_json p.p_spans));
      ("counters", J.obj (fun v -> J.Num (float_of_int v)) p.p_counters);
      ("dists", J.Arr (List.map dist_to_json p.p_dists));
    ]

let ( let* ) = Result.bind

let rec span_of_json j =
  let* span_name = J.str_field j "name" in
  let* calls = J.num_field j "calls" in
  let* total_s = J.num_field j "total_s" in
  let* children = J.arr_field span_of_json j "children" in
  Ok { span_name; calls = int_of_float calls; total_s; children }

let dist_of_json j =
  let* name = J.str_field j "name" in
  let* c = J.num_field j "count" in
  let* d_sum = J.num_field j "sum" in
  let* d_min = J.num_field j "min" in
  let* d_max = J.num_field j "max" in
  let* samples =
    J.arr_field
      (function
        | J.Num v -> Ok v
        | _ -> E.error E.Cli E.Parse_error "dist samples must be numbers")
      j "samples"
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
  let* p_spans = J.arr_field span_of_json j "spans" in
  let* p_counters =
    J.obj_field (fun k v -> Result.map int_of_float (J.as_num k v)) j "counters"
  in
  let* p_dists = J.arr_field dist_of_json j "dists" in
  Ok { p_spans; p_counters; p_dists }

let save ~path p = J.write_atomic ~path (J.json_to_string (to_json p))
let load ~path = J.load_json of_json ~path

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_duration ppf s =
  if s >= 1.0 then Format.fprintf ppf "%.2fs" s
  else if s >= 1e-3 then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else Format.fprintf ppf "%.0fus" (s *. 1e6)

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4g p50=%.4g p95=%.4g min=%.4g max=%.4g"
    s.count s.mean s.p50 s.p95 s.min s.max

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
        Format.fprintf ppf "  %-36s %a@." name pp_summary (summarize d))
      p.p_dists
  end
