module E = Cnt_error
module J = Checkpoint
module T = Telemetry

type dist_summary = {
  m_count : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_p50 : float;
  m_p95 : float;
}

type t = {
  m_source : string;
  m_time : float;
  m_uptime_s : float;
  m_gauges : (string * float) list;
  m_counters : (string * int) list;
  m_dists : (string * dist_summary) list;
}

let summarize (d : T.dist) =
  {
    m_count = d.T.d_count;
    m_sum = d.T.d_sum;
    m_min = (if d.T.d_count = 0 then 0.0 else d.T.d_min);
    m_max = (if d.T.d_count = 0 then 0.0 else d.T.d_max);
    m_p50 = T.percentile d 0.5;
    m_p95 = T.percentile d 0.95;
  }

let by_name (a, _) (b, _) = compare (a : string) b

let make ~source ~started ?(gauges = []) ?(counters = []) () =
  let prof =
    if T.enabled () then T.snapshot ()
    else { T.p_spans = []; p_counters = []; p_dists = [] }
  in
  (* Caller counters win over telemetry counters with the same name: the
     caller's lifecycle totals (served/shed/...) are authoritative, and
     telemetry may track the same names. *)
  let merged =
    List.fold_left
      (fun acc (name, n) -> (name, n) :: List.remove_assoc name acc)
      prof.T.p_counters counters
  in
  let now = Unix.gettimeofday () in
  {
    m_source = source;
    m_time = now;
    m_uptime_s = max 0.0 (now -. started);
    m_gauges = List.sort by_name gauges;
    m_counters = List.sort by_name merged;
    m_dists =
      List.sort by_name
        (List.map (fun (name, d) -> (name, summarize d)) prof.T.p_dists);
  }

let drop_suffix s suffix =
  let n = String.length s and m = String.length suffix in
  if n > m && String.sub s (n - m) m = suffix then Some (String.sub s 0 (n - m))
  else None

let hit_ratios m =
  List.filter_map
    (fun (name, hits) ->
      match drop_suffix name ".hits" with
      | None -> None
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

let dist_to_json d =
  J.Obj
    [
      ("count", J.Num (float_of_int d.m_count));
      ("sum", J.Num d.m_sum);
      ("min", J.Num d.m_min);
      ("max", J.Num d.m_max);
      ("p50", J.Num d.m_p50);
      ("p95", J.Num d.m_p95);
    ]

let to_json m =
  J.Obj
    [
      ("version", J.Num 1.0);
      ("source", J.Str m.m_source);
      ("time", J.Num m.m_time);
      ("uptime_s", J.Num m.m_uptime_s);
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) m.m_gauges));
      ( "counters",
        J.Obj
          (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) m.m_counters)
      );
      ("dists", J.Obj (List.map (fun (k, d) -> (k, dist_to_json d)) m.m_dists));
    ]

let ( let* ) = Result.bind

let num_field j name =
  let* v = J.field j name in
  J.as_num name v

let dist_of_json name j =
  let* m_count = num_field j "count" in
  let* m_sum = num_field j "sum" in
  let* m_min = num_field j "min" in
  let* m_max = num_field j "max" in
  let* m_p50 = num_field j "p50" in
  let* m_p95 = num_field j "p95" in
  Ok (name, { m_count = int_of_float m_count; m_sum; m_min; m_max; m_p50; m_p95 })

let assoc_field j name =
  match J.field j name with
  | Ok (J.Obj fields) -> Ok fields
  | Ok _ -> E.error E.Cli E.Parse_error "field %S must be an object" name
  | Error e -> Error e

let of_json j =
  let* source = Result.bind (J.field j "source") (J.as_str "source") in
  let* time = num_field j "time" in
  let* uptime = num_field j "uptime_s" in
  let* gauge_fields = assoc_field j "gauges" in
  let* m_gauges =
    J.map_result
      (fun (k, v) ->
        let* n = J.as_num k v in
        Ok (k, n))
      gauge_fields
  in
  let* counter_fields = assoc_field j "counters" in
  let* m_counters =
    J.map_result
      (fun (k, v) ->
        let* n = J.as_num k v in
        Ok (k, int_of_float n))
      counter_fields
  in
  let* dist_fields = assoc_field j "dists" in
  let* m_dists = J.map_result (fun (k, v) -> dist_of_json k v) dist_fields in
  Ok
    {
      m_source = source;
      m_time = time;
      m_uptime_s = uptime;
      m_gauges;
      m_counters;
      m_dists;
    }

let save ~path m = J.write_atomic ~path (J.json_to_string (to_json m))

let load ~path =
  let* text = J.read_file path in
  let* j = J.json_of_string text in
  of_json j

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
      (fun (k, d) ->
        Format.fprintf ppf
          "  %-32s n=%d mean=%.4g p50=%.4g p95=%.4g max=%.4g@." k d.m_count
          (if d.m_count = 0 then 0.0 else d.m_sum /. float_of_int d.m_count)
          d.m_p50 d.m_p95 d.m_max)
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
      line "%s{quantile=\"0.5\"} %g" name d.m_p50;
      line "%s{quantile=\"0.95\"} %g" name d.m_p95;
      line "%s_sum %g" name d.m_sum;
      line "%s_count %d" name d.m_count)
    m.m_dists;
  Buffer.contents buf
