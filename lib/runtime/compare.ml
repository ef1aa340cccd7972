module T = Telemetry
module C = Checkpoint
module E = Cnt_error

type tolerances = {
  wall_rtol : float;
  counter_rtol : float;
  scalar_rtol : float;
  dist_rtol : float;
  min_wall_s : float;
}

let default =
  {
    wall_rtol = 0.5;
    counter_rtol = 0.1;
    scalar_rtol = 0.05;
    dist_rtol = 0.5;
    min_wall_s = 0.05;
  }

type verdict = Within | Regressed | Improved | Missing | Added
type kind = Span | Counter | Scalar | Dist

type item = {
  i_kind : kind;
  i_name : string;
  i_base : float option;
  i_cur : float option;
  i_verdict : verdict;
}

type report = { tol : tolerances; items : item list }

let verdict_name = function
  | Within -> "within"
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Missing -> "missing"
  | Added -> "added"

let kind_name = function
  | Span -> "span"
  | Counter -> "counter"
  | Scalar -> "scalar"
  | Dist -> "dist"

let delta_rel i =
  match (i.i_base, i.i_cur) with
  | Some b, Some c when Float.abs b > 0.0 -> Some ((c -. b) /. Float.abs b)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)

(* Spans compare by layer on self time, so a slowdown spread over many
   paths adds up; calls are not compared (attempt counts legitimately
   differ between runs). *)
let layer_selves spans =
  List.map (fun (l : T.layer) -> (l.T.l_name, l.T.l_self_s)) (T.rollup spans)

(* Union of two assoc lists by key, preserving a deterministic order. *)
let union_keys base cur =
  let keys = List.map fst base @ List.map fst cur in
  List.sort_uniq String.compare keys

let pair ~kind ~verdict base cur =
  let keys = union_keys base cur in
  List.map
    (fun name ->
      let b = List.assoc_opt name base in
      let c = List.assoc_opt name cur in
      {
        i_kind = kind;
        i_name = name;
        i_base = b;
        i_cur = c;
        i_verdict = verdict b c;
      })
    keys

(* A metric on one side only is missing or added, whatever its kind;
   [judge] decides the pairs. *)
let verdict judge b c =
  match (b, c) with
  | None, None -> Within
  | Some _, None -> Missing
  | None, Some _ -> Added
  | Some b, Some c -> judge b c

let span_verdict tol =
  verdict (fun b c ->
      if b < tol.min_wall_s && c < tol.min_wall_s then Within
      else if c > b *. (1.0 +. tol.wall_rtol) then Regressed
      else if c < b *. (1.0 -. tol.wall_rtol) then Improved
      else Within)

(* Distributions in the profile are throughput-like (patterns/s, parallel
   speedup): higher is better, so only a drop beyond tolerance fails. *)
let dist_verdict rtol =
  verdict (fun b c ->
      if c < b *. (1.0 -. rtol) then Regressed
      else if c > b *. (1.0 +. rtol) then Improved
      else Within)

let drift_verdict rtol =
  verdict (fun b c ->
      let scale = Float.max (Float.abs b) 1e-300 in
      if Float.abs (c -. b) > rtol *. scale then Regressed else Within)

let compare_profiles ?(tol = default) ~base cur =
  let layers =
    pair ~kind:Span
      ~verdict:(span_verdict tol)
      (layer_selves base.T.p_spans)
      (layer_selves cur.T.p_spans)
  in
  let counters =
    pair ~kind:Counter
      ~verdict:(drift_verdict tol.counter_rtol)
      (List.map (fun (k, v) -> (k, float_of_int v)) base.T.p_counters)
      (List.map (fun (k, v) -> (k, float_of_int v)) cur.T.p_counters)
  in
  let dists =
    pair ~kind:Dist
      ~verdict:(dist_verdict tol.dist_rtol)
      (List.map (fun (k, d) -> (k, (T.summarize d).T.mean)) base.T.p_dists)
      (List.map (fun (k, d) -> (k, (T.summarize d).T.mean)) cur.T.p_dists)
  in
  layers @ counters @ dists

let manifest_scalars (m : C.manifest) =
  List.concat_map
    (fun (e : C.entry) ->
      List.map (fun (k, v) -> (e.C.experiment ^ "/" ^ k, v)) e.C.scalars)
    m.C.entries

let compare_manifests ?(tol = default) ~base cur =
  pair ~kind:Scalar
    ~verdict:(drift_verdict tol.scalar_rtol)
    (manifest_scalars base) (manifest_scalars cur)

let regressions r =
  List.filter (fun i -> i.i_verdict = Regressed) r.items

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_value ppf = function
  | None -> Format.fprintf ppf "%10s" "-"
  | Some v ->
      if Float.abs v >= 1e4 || (Float.abs v < 1e-3 && v <> 0.0) then
        Format.fprintf ppf "%10.3e" v
      else Format.fprintf ppf "%10.4g" v

let pp_item ppf i =
  Format.fprintf ppf "  %-9s %-44s %a %a" (verdict_name i.i_verdict) i.i_name
    pp_value i.i_base pp_value i.i_cur;
  (match delta_rel i with
  | Some d -> Format.fprintf ppf "  %+7.1f%%" (100.0 *. d)
  | None -> Format.fprintf ppf "  %8s" "-");
  Format.fprintf ppf "@."

let pp ppf r =
  let section kind title =
    match List.filter (fun i -> i.i_kind = kind) r.items with
    | [] -> ()
    | items ->
        Format.fprintf ppf "%s (%-44s %10s %10s %9s):@." title "name" "base"
          "current" "delta";
        (* Noise control: inside tolerance AND unremarkable rows are
           summarized, everything notable is printed. *)
        let notable, quiet =
          List.partition (fun i -> i.i_verdict <> Within) items
        in
        List.iter (pp_item ppf) notable;
        if quiet <> [] then
          Format.fprintf ppf "  (%d more within tolerance)@."
            (List.length quiet)
  in
  section Span "layers";
  section Counter "counters";
  section Dist "dists (means)";
  section Scalar "scalars";
  let count v =
    List.length (List.filter (fun i -> i.i_verdict = v) r.items)
  in
  Format.fprintf ppf
    "compare: %d compared — %d regressed, %d improved, %d missing, %d added@."
    (List.length r.items) (count Regressed) (count Improved) (count Missing)
    (count Added)

let to_json r =
  let num_opt = function None -> C.Null | Some v -> C.Num v in
  C.Obj
    [
      ( "tolerances",
        C.Obj
          [
            ("wall_rtol", C.Num r.tol.wall_rtol);
            ("counter_rtol", C.Num r.tol.counter_rtol);
            ("scalar_rtol", C.Num r.tol.scalar_rtol);
            ("dist_rtol", C.Num r.tol.dist_rtol);
            ("min_wall_s", C.Num r.tol.min_wall_s);
          ] );
      ( "items",
        C.Arr
          (List.map
             (fun i ->
               C.Obj
                 [
                   ("kind", C.Str (kind_name i.i_kind));
                   ("name", C.Str i.i_name);
                   ("base", num_opt i.i_base);
                   ("current", num_opt i.i_cur);
                   ("delta_rel", num_opt (delta_rel i));
                   ("verdict", C.Str (verdict_name i.i_verdict));
                 ])
             r.items) );
      ("regressions", C.Num (float_of_int (List.length (regressions r))));
    ]

let regression_error r =
  match regressions r with
  | [] -> None
  | regs ->
      let worst =
        List.sort
          (fun a b ->
            compare
              (Option.value ~default:0.0 (delta_rel b))
              (Option.value ~default:0.0 (delta_rel a)))
          regs
      in
      let names =
        List.filteri (fun idx _ -> idx < 5) worst
        |> List.map (fun i -> i.i_name)
        |> String.concat ","
      in
      Some
        (E.makef
           ~context:
             [
               ("regressed", string_of_int (List.length regs));
               ("worst", names);
             ]
           E.Cli E.Regression
           "%d of %d compared metrics regressed beyond tolerance"
           (List.length regs) (List.length r.items))
