(* Metrics snapshots: counters and distributions from the telemetry
   registry next to caller gauges, the cost of a snapshot in a long-lived
   daemon, JSON round-trip, atomic save/load, hit ratios, and the
   Prometheus text rendering. *)

module M = Runtime.Metrics
module T = Runtime.Telemetry
module E = Runtime.Cnt_error

let temp_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_telemetry f () =
  T.set_enabled true;
  T.reset ();
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

(* --- make: the registry's counters and dists, the caller's gauges ---- *)

let telemetry_counters_fold_in =
  with_telemetry (fun () ->
      T.count "solver.iterations" 7;
      T.observe "request_wall_s" 0.25;
      T.observe "request_wall_s" 0.75;
      let m =
        M.make ~source:"test" ~started:(Unix.gettimeofday () -. 5.0) ()
      in
      Alcotest.(check string) "source" "test" m.M.m_source;
      Alcotest.(check bool) "uptime anchored" true (m.M.m_uptime_s >= 4.0);
      Alcotest.(check (option int)) "telemetry counter present" (Some 7)
        (List.assoc_opt "solver.iterations" m.M.m_counters);
      match List.assoc_opt "request_wall_s" m.M.m_dists with
      | None -> Alcotest.fail "telemetry dist missing"
      | Some d ->
          Alcotest.(check int) "dist count" 2 d.T.count;
          Alcotest.(check (float 1e-9)) "dist sum" 1.0 d.T.sum;
          Alcotest.(check (float 1e-9)) "dist max" 0.75 d.T.max)

let disabled_telemetry_contributes_nothing () =
  T.set_enabled true;
  T.reset ();
  T.count "served" 1;
  T.observe "lat" 1.0;
  T.set_enabled false;
  let m = M.make ~source:"test" ~started:0.0 ~gauges:[ ("depth", 4.0) ] () in
  Alcotest.(check int) "no counters" 0 (List.length m.M.m_counters);
  Alcotest.(check int) "no dists" 0 (List.length m.M.m_dists);
  Alcotest.(check (option (float 0.0))) "gauges kept" (Some 4.0)
    (List.assoc_opt "depth" m.M.m_gauges)

(* A daemon's registry keeps one [serve.request/req-<n>] subtree per
   request served, and the daemon snapshots once a second and on every
   [metrics] verb: the snapshot must not copy that tree. *)
let snapshot_skips_the_span_tree =
  with_telemetry (fun () ->
      T.with_span "estimate" (fun () ->
          T.count "sim.words" 64;
          T.observe "sim.patterns_per_s" 1e6);
      let request = T.snapshot () in
      T.reset ();
      for n = 1 to 10_000 do
        T.merge ~prefix:[ "serve.request"; Printf.sprintf "req-%d" n ] request
      done;
      T.count "serve.served" 10_000;
      let before = Gc.minor_words () in
      let m = M.make ~source:"serve" ~started:0.0 ~gauges:[ ("queue_depth", 0.0) ] () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check (option int)) "grafted counters summed" (Some 640_000)
        (List.assoc_opt "sim.words" m.M.m_counters);
      if words >= 20_000.0 then
        Alcotest.failf "Metrics.make allocated %.0f minor words (bound 20 000)" words)

(* --- hit ratios ---------------------------------------------------- *)

let hit_ratios_from_pairs =
  with_telemetry (fun () ->
      List.iter
        (fun (k, n) -> T.count k n)
        [
          ("cache.matchlib.hits", 9);
          ("cache.matchlib.misses", 1);
          ("cache.cold.hits", 0);
          ("cache.cold.misses", 0);
          ("orphan.hits", 5);
        ];
      let ratios = M.hit_ratios (M.make ~source:"test" ~started:0.0 ()) in
      (match
         List.find_opt (fun (b, _, _, _) -> b = "cache.matchlib") ratios
       with
      | None -> Alcotest.fail "matchlib pair missing"
      | Some (_, r, h, mi) ->
          Alcotest.(check (float 1e-9)) "ratio" 0.9 r;
          Alcotest.(check int) "hits" 9 h;
          Alcotest.(check int) "misses" 1 mi);
      Alcotest.(check bool) "0/0 pair omitted" true
        (not (List.exists (fun (b, _, _, _) -> b = "cache.cold") ratios));
      Alcotest.(check bool) "hits without misses is not a pair" true
        (not (List.exists (fun (b, _, _, _) -> b = "orphan") ratios)))

(* --- serialization ------------------------------------------------- *)

let sample () =
  T.set_enabled true;
  T.reset ();
  T.count "serve.served" 41;
  T.count "serve.failed" 2;
  T.observe "serve.request_wall_s" 0.5;
  let m =
    M.make ~source:"campaign" ~started:0.0
      ~gauges:
        [ ("workers_busy", 3.0); ("queue_depth", 12.0); ("campaign.done", 41.0) ]
      ()
  in
  T.set_enabled false;
  m

let json_roundtrip () =
  let m = sample () in
  match M.of_json (M.to_json m) with
  | Result.Error e -> Alcotest.failf "of_json: %s" (E.to_string e)
  | Ok back ->
      Alcotest.(check string) "source survives" m.M.m_source back.M.m_source;
      Alcotest.(check (option (float 1e-9))) "gauge survives" (Some 3.0)
        (List.assoc_opt "workers_busy" back.M.m_gauges);
      Alcotest.(check (option int)) "counter survives" (Some 41)
        (List.assoc_opt "serve.served" back.M.m_counters);
      match List.assoc_opt "serve.request_wall_s" back.M.m_dists with
      | None -> Alcotest.fail "dist lost"
      | Some d -> Alcotest.(check (float 1e-9)) "mean derived" 0.5 d.T.mean

let save_load_roundtrip () =
  let dir = temp_dir "metrics" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "metrics.json" in
      E.get_exn (M.save ~path (sample ()));
      (* Atomic write convention: no temp-file residue next to it. *)
      Alcotest.(check bool) "no temp residue" true
        (Array.for_all
           (fun f -> f = "metrics.json")
           (Sys.readdir dir));
      match M.load ~path with
      | Ok m ->
          Alcotest.(check (option int)) "loaded counter" (Some 2)
            (List.assoc_opt "serve.failed" m.M.m_counters)
      | Result.Error e -> Alcotest.failf "load: %s" (E.to_string e))

let load_missing_is_typed () =
  match M.load ~path:"/nonexistent/metrics.json" with
  | Ok _ -> Alcotest.fail "loaded metrics from nowhere"
  | Result.Error e ->
      Alcotest.(check bool) "typed io error" true (e.E.code = E.Io_error)

(* --- prometheus ---------------------------------------------------- *)

let prometheus_shape =
  with_telemetry (fun () ->
      T.observe "serve.request_wall_s" 0.5;
      T.count "serve.served" 41;
      let m =
        M.make ~source:"serve" ~started:0.0 ~gauges:[ ("queue_depth", 2.0) ] ()
      in
      let text = M.to_prometheus m in
      let lines = String.split_on_char '\n' text in
      let has p = List.exists (fun l -> l = p) lines in
      let has_prefix p =
        List.exists
          (fun l ->
            String.length l >= String.length p
            && String.sub l 0 (String.length p) = p)
          lines
      in
      Alcotest.(check bool) "ends with newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n');
      Alcotest.(check bool) "counter TYPE line" true
        (has "# TYPE cntpower_serve_served_total counter");
      Alcotest.(check bool) "counter sample" true
        (has "cntpower_serve_served_total 41");
      Alcotest.(check bool) "gauge sample" true
        (has "cntpower_queue_depth 2");
      Alcotest.(check bool) "summary TYPE line" true
        (has "# TYPE cntpower_serve_request_wall_s summary");
      Alcotest.(check bool) "p50 quantile series" true
        (has_prefix "cntpower_serve_request_wall_s{quantile=\"0.5\"}");
      Alcotest.(check bool) "summary count series" true
        (has_prefix "cntpower_serve_request_wall_s_count");
      (* Metric names must stay inside [a-zA-Z0-9_:] — dots sanitized. *)
      List.iter
        (fun l ->
          if String.length l > 0 && l.[0] <> '#' then
            let name =
              match String.index_opt l '{' with
              | Some i -> String.sub l 0 i
              | None -> (
                  match String.index_opt l ' ' with
                  | Some i -> String.sub l 0 i
                  | None -> l)
            in
            String.iter
              (fun c ->
                let ok =
                  (c >= 'a' && c <= 'z')
                  || (c >= 'A' && c <= 'Z')
                  || (c >= '0' && c <= '9')
                  || c = '_' || c = ':'
                in
                if not ok then
                  Alcotest.failf "bad char %C in metric name %S" c name)
              name)
        lines)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "metrics"
    [
      ( "make",
        [
          tc "telemetry counters and dists fold in" telemetry_counters_fold_in;
          tc "disabled telemetry contributes nothing"
            disabled_telemetry_contributes_nothing;
          tc "snapshot skips the span tree" snapshot_skips_the_span_tree;
        ] );
      ( "ratios", [ tc "hit ratios from counter pairs" hit_ratios_from_pairs ] );
      ( "serialization",
        [
          tc "json round-trip" json_roundtrip;
          tc "atomic save/load round-trip" save_load_roundtrip;
          tc "load of missing file is typed" load_missing_is_typed;
        ] );
      ( "prometheus", [ tc "text exposition shape" prometheus_shape ] );
    ]
