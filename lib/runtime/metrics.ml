module J = Checkpoint
module T = Telemetry

type t = {
  m_source : string;
  m_time : float;
  m_uptime_s : float;
  m_gauges : (string * float) list;
  m_counters : (string * int) list;
  m_dists : (string * T.summary) list;
}

let make ~source ~started ?(gauges = []) () =
  let on = T.enabled () in
  let now = Unix.gettimeofday () in
  {
    m_source = source;
    m_time = now;
    m_uptime_s = max 0.0 (now -. started);
    m_gauges = List.sort (fun (a, _) (b, _) -> String.compare a b) gauges;
    m_counters = (if on then T.counters () else []);
    m_dists =
      (if on then List.map (fun (k, d) -> (k, T.summarize d)) (T.dists ())
       else []);
  }

let hit_ratios m =
  List.filter_map
    (fun (name, hits) ->
      match Filename.chop_suffix_opt ~suffix:".hits" name with
      | None | Some "" -> None
      | Some base -> (
          match List.assoc_opt (base ^ ".misses") m.m_counters with
          | Some misses when hits + misses > 0 ->
              Some
                ( base,
                  float_of_int hits /. float_of_int (hits + misses),
                  hits,
                  misses )
          | _ -> None))
    m.m_counters

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let to_json m =
  J.Obj
    [
      ("version", J.Num 1.0);
      ("source", J.Str m.m_source);
      ("time", J.Num m.m_time);
      ("uptime_s", J.Num m.m_uptime_s);
      ("gauges", J.obj (fun v -> J.Num v) m.m_gauges);
      ("counters", J.obj (fun v -> J.Num (float_of_int v)) m.m_counters);
      ("dists", J.obj (fun d -> J.Obj (T.summary_fields d)) m.m_dists);
    ]

let ( let* ) = Result.bind

(* The mean is derived, so a snapshot written without one still loads. *)
let summary_of_json _ j =
  let* count = J.num_field j "count" in
  let* sum = J.num_field j "sum" in
  let* min = J.num_field j "min" in
  let* max = J.num_field j "max" in
  let* p50 = J.num_field j "p50" in
  let* p95 = J.num_field j "p95" in
  let count = int_of_float count in
  let mean = if count = 0 then 0.0 else sum /. float_of_int count in
  Ok { T.count; sum; mean; min; max; p50; p95 }

let of_json j =
  let* m_source = J.str_field j "source" in
  let* m_time = J.num_field j "time" in
  let* m_uptime_s = J.num_field j "uptime_s" in
  let* m_gauges = J.obj_field J.as_num j "gauges" in
  let* m_counters =
    J.obj_field (fun k v -> Result.map int_of_float (J.as_num k v)) j "counters"
  in
  let* m_dists = J.obj_field summary_of_json j "dists" in
  Ok { m_source; m_time; m_uptime_s; m_gauges; m_counters; m_dists }

let save ~path m = J.write_atomic ~path (J.json_to_string (to_json m))

let load ~path = J.load_json of_json ~path

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp ppf m =
  Format.fprintf ppf "%s metrics — up %.1f s@." m.m_source m.m_uptime_s;
  if m.m_gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (k, v) ->
        if Float.is_integer v then Format.fprintf ppf "  %-32s %.0f@." k v
        else Format.fprintf ppf "  %-32s %.3f@." k v)
      m.m_gauges
  end;
  if m.m_counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    let by_value =
      List.sort (fun (_, a) (_, b) -> compare (b : int) a) m.m_counters
    in
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) by_value
  end;
  (match hit_ratios m with
  | [] -> ()
  | ratios ->
      Format.fprintf ppf "cache hit ratios:@.";
      List.iter
        (fun (base, ratio, hits, misses) ->
          Format.fprintf ppf "  %-32s %5.1f%%  (%d hit / %d miss)@." base
            (100.0 *. ratio) hits misses)
        ratios);
  if m.m_dists <> [] then begin
    Format.fprintf ppf "distributions:@.";
    List.iter
      (fun (k, d) -> Format.fprintf ppf "  %-32s %a@." k T.pp_summary d)
      m.m_dists
  end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let to_prometheus m =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# TYPE cntpower_uptime_seconds gauge";
  line "cntpower_uptime_seconds{source=%S} %g" m.m_source m.m_uptime_s;
  List.iter
    (fun (k, v) ->
      let name = "cntpower_" ^ sanitize k in
      line "# TYPE %s gauge" name;
      line "%s %g" name v)
    m.m_gauges;
  List.iter
    (fun (k, v) ->
      let name = "cntpower_" ^ sanitize k ^ "_total" in
      line "# TYPE %s counter" name;
      line "%s %d" name v)
    m.m_counters;
  List.iter
    (fun (k, d) ->
      let name = "cntpower_" ^ sanitize k in
      line "# TYPE %s summary" name;
      line "%s{quantile=\"0.5\"} %g" name d.T.p50;
      line "%s{quantile=\"0.95\"} %g" name d.T.p95;
      line "%s_sum %g" name d.T.sum;
      line "%s_count %d" name d.T.count)
    m.m_dists;
  Buffer.contents buf
