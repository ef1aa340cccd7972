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
  d_buckets : (float * int) array;
}

type profile = {
  p_spans : span list;
  p_counters : (string * int) list;
  p_dists : (string * dist) list;
}

(* ------------------------------------------------------------------ *)
(* Live registry                                                       *)

type node = {
  n_name : string;
  mutable n_calls : int;
  mutable n_total : float;
  n_children : (string, node) Hashtbl.t;
}

(* A live distribution: its exact count, sum and extrema (with no
   buckets) and a count per histogram bucket (see [key]). *)
type dstate = { mutable exact : dist; buckets : (int, int ref) Hashtbl.t }

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

let find_or_add tbl k fresh =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = fresh () in
      Hashtbl.replace tbl k v;
      v

let child_of parent name = find_or_add parent.n_children name (fun () -> fresh_node name)

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

let add tbl k n =
  let r = find_or_add tbl k (fun () -> ref 0) in
  r := !r + n

let count name n = if !on then add (registry ()).g_counters name n

(* A value's bucket: the sign, exponent and top [mantissa_bits] mantissa
   bits of the float, so 64 buckets per octave. The key is the magnitude's
   bit prefix, negated for a negative value: keys order like the values,
   and both zeros share key 0. *)
let mantissa_bits = 6
let shift = 52 - mantissa_bits
let relative_error = Float.ldexp 1.0 (-(mantissa_bits + 1))

let key v =
  let m = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (Float.abs v)) shift) in
  if v < 0.0 then -m else m

(* The middle of bucket [k], within [relative_error] of every normal float
   it holds. Zero and the infinities read as themselves. *)
let middle k =
  let low = Int64.shift_left (Int64.of_int (abs k)) shift in
  let edge = Int64.float_of_bits low in
  let mid =
    if edge = 0.0 || not (Float.is_finite edge) then edge
    else Int64.float_of_bits (Int64.add low (Int64.shift_left 1L (shift - 1)))
  in
  if k < 0 then -.mid else mid

(* The occupied buckets of [tbl] as (middle, count), in ascending order. *)
let bucket_array tbl =
  Hashtbl.fold (fun k n acc -> (k, !n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (k, n) -> (middle k, n))
  |> Array.of_list

let no_values =
  { d_count = 0; d_sum = 0.0; d_min = infinity; d_max = neg_infinity; d_buckets = [||] }

let find_dstate name =
  find_or_add (registry ()).g_dists name (fun () ->
      { exact = no_values; buckets = Hashtbl.create 16 })

(* Observing and merging both add counts, so a merge is exact and its
   order does not matter. *)
let merge_dist name (x : dist) =
  let d = find_dstate name in
  let e = d.exact in
  d.exact <-
    {
      e with
      d_count = e.d_count + x.d_count;
      d_sum = e.d_sum +. x.d_sum;
      d_min = (if x.d_min < e.d_min then x.d_min else e.d_min);
      d_max = (if x.d_max > e.d_max then x.d_max else e.d_max);
    };
  Array.iter (fun (v, n) -> add d.buckets (key v) n) x.d_buckets

let observe name v =
  if !on then
    merge_dist name
      { d_count = 1; d_sum = v; d_min = v; d_max = v; d_buckets = [| (v, 1) |] }

(* ------------------------------------------------------------------ *)
(* Snapshot & merge                                                    *)

let rec span_of_node n =
  let children =
    Hashtbl.fold (fun _ c acc -> span_of_node c :: acc) n.n_children []
    |> List.sort (fun a b -> compare b.total_s a.total_s)
  in
  { span_name = n.n_name; calls = n.n_calls; total_s = n.n_total; children }

let dist_of_dstate d = { d.exact with d_buckets = bucket_array d.buckets }

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

let merge ?(prefix = []) p =
  let reg = registry () in
  let anchor =
    List.fold_left (fun parent name -> child_of parent name) reg.g_root prefix
  in
  List.iter (merge_span anchor) p.p_spans;
  List.iter (fun (name, n) -> add reg.g_counters name n) p.p_counters;
  List.iter (fun (name, d) -> merge_dist name d) p.p_dists

(* ------------------------------------------------------------------ *)
(* Derived statistics                                                  *)

let mean d = if d.d_count = 0 then 0.0 else d.d_sum /. float_of_int d.d_count

(* The nearest rank over the bucket counts, read as its bucket's middle
   and clamped to the exact extrema. *)
let percentile d q =
  let n = Array.fold_left (fun acc (_, c) -> acc + c) 0 d.d_buckets in
  if n = 0 then 0.0
  else
    let rank = max 0 (min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5))) in
    let rec walk i below =
      let v, c = d.d_buckets.(i) in
      if below + c > rank then v else walk (i + 1) (below + c)
    in
    Float.min d.d_max (Float.max d.d_min (walk 0 0))

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

type layer = {
  l_name : string;
  l_calls : int;
  l_total_s : float;
  l_self_s : float;
}

(* Self time is not clamped: summed over every node, the children's
   totals cancel and the selves add up to the roots' totals. *)
let rollup spans =
  let tbl = Hashtbl.create 32 in
  let rec visit s =
    let l =
      match Hashtbl.find_opt tbl s.span_name with
      | Some l -> l
      | None -> { l_name = s.span_name; l_calls = 0; l_total_s = 0.0; l_self_s = 0.0 }
    in
    let covered = List.fold_left (fun acc c -> acc +. c.total_s) 0.0 s.children in
    Hashtbl.replace tbl s.span_name
      {
        l with
        l_calls = l.l_calls + s.calls;
        l_total_s = l.l_total_s +. s.total_s;
        l_self_s = l.l_self_s +. (s.total_s -. covered);
      };
    List.iter visit s.children
  in
  List.iter visit spans;
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
  |> List.sort (fun a b ->
         match Float.compare b.l_self_s a.l_self_s with
         | 0 -> String.compare a.l_name b.l_name
         | c -> c)

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
  let bucket (v, c) = J.Arr [ J.Num v; J.Num (float_of_int c) ] in
  J.Obj
    ((("name", J.Str name) :: summary_fields (summarize d))
    @ [ ("buckets", J.Arr (List.map bucket (Array.to_list d.d_buckets))) ])

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
  (* A profile written before the histogram keeps [samples]: each one
     folds into its bucket. *)
  let bucket = function
    | J.Arr [ J.Num v; J.Num c ] -> Ok (v, int_of_float c)
    | J.Num v -> Ok (v, 1)
    | _ -> E.error E.Cli E.Parse_error "dist buckets must be [value, count] pairs"
  in
  let field = if Result.is_ok (J.field j "buckets") then "buckets" else "samples" in
  let* pairs = J.arr_field bucket j field in
  let buckets = Hashtbl.create 16 in
  List.iter (fun (v, c) -> add buckets (key v) c) pairs;
  let d_count = int_of_float c in
  Ok
    ( name,
      {
        d_count;
        d_sum;
        d_min = (if d_count = 0 then infinity else d_min);
        d_max = (if d_count = 0 then neg_infinity else d_max);
        d_buckets = bucket_array buckets;
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

(* Seconds to the nanosecond, so the rows' self times add up to the
   roots' total as printed. *)
let pp_layers ppf spans =
  let roots = List.fold_left (fun acc s -> acc +. s.total_s) 0.0 spans in
  let share s = if roots > 0.0 then 100.0 *. s /. roots else 0.0 in
  Format.fprintf ppf "layers (self, share of the roots' total %.9f s, total, calls):@."
    roots;
  List.iter
    (fun l ->
      Format.fprintf ppf "  %-36s %12.9f %6.2f%% %12.9f %6d@." l.l_name l.l_self_s
        (share l.l_self_s) l.l_total_s l.l_calls)
    (rollup spans)

let pp ppf p =
  if p.p_spans <> [] then pp_layers ppf p.p_spans;
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
