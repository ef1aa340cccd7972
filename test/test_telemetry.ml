(* Telemetry registry: span nesting and aggregation, counters,
   distribution statistics, disabled-mode no-op guarantees, profile
   merge across a real fork, and JSON/file round-trips. *)

module T = Runtime.Telemetry
module C = Runtime.Checkpoint
module E = Runtime.Cnt_error
module S = Runtime.Supervisor

(* Every test owns the process-wide registry: start clean, leave clean. *)
let fresh f () =
  T.set_enabled true;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

let find_span profile path =
  let rec go spans = function
    | [] -> None
    | [ name ] -> List.find_opt (fun s -> s.T.span_name = name) spans
    | name :: rest -> (
        match List.find_opt (fun s -> s.T.span_name = name) spans with
        | Some s -> go s.T.children rest
        | None -> None)
  in
  go profile.T.p_spans path

let get_span profile path =
  match find_span profile path with
  | Some s -> s
  | None ->
      Alcotest.failf "span %s not found" (String.concat "/" path)

(* --- disabled mode ------------------------------------------------- *)

let disabled_is_identity () =
  T.set_enabled false;
  T.reset ();
  let r = T.with_span "ghost" (fun () -> 41 + 1) in
  T.count "ghost.counter" 7;
  T.observe "ghost.dist" 3.5;
  Alcotest.(check int) "with_span returns f ()" 42 r;
  let p = T.snapshot () in
  Alcotest.(check int) "no spans recorded" 0 (List.length p.T.p_spans);
  Alcotest.(check int) "no counters recorded" 0 (List.length p.T.p_counters);
  Alcotest.(check int) "no dists recorded" 0 (List.length p.T.p_dists)

let disabled_zero_alloc () =
  T.set_enabled false;
  T.reset ();
  (* Warm up so any one-time allocation is out of the way. *)
  T.count "warm" 1;
  T.observe "warm" 1.0;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.count "hot.counter" 1;
    T.observe "hot.dist" 2.0
  done;
  let allocated = Gc.minor_words () -. before in
  (* Gc.minor_words itself returns a boxed float per call; allow that
     slack but nothing proportional to the 20k disabled entry points. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled count/observe allocate nothing (saw %.0f words)"
       allocated)
    true
    (allocated < 100.0)

(* --- spans --------------------------------------------------------- *)

let span_nesting =
  fresh (fun () ->
      T.with_span "outer" (fun () ->
          T.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
      let p = T.snapshot () in
      let outer = get_span p [ "outer" ] in
      Alcotest.(check int) "outer called once" 1 outer.T.calls;
      let inner = get_span p [ "outer"; "inner" ] in
      Alcotest.(check int) "inner nested under outer" 1 inner.T.calls;
      Alcotest.(check bool)
        "inner time is contained in outer time" true
        (inner.T.total_s <= outer.T.total_s))

let span_aggregation =
  fresh (fun () ->
      for _ = 1 to 5 do
        T.with_span "top" (fun () -> T.with_span "leaf" (fun () -> ()))
      done;
      let p = T.snapshot () in
      Alcotest.(check int) "five calls fold into one node" 5
        (get_span p [ "top" ]).T.calls;
      Alcotest.(check int) "children aggregate by path" 5
        (get_span p [ "top"; "leaf" ]).T.calls;
      Alcotest.(check int) "one root node, not five" 1
        (List.length p.T.p_spans))

let span_ordering =
  fresh (fun () ->
      T.with_span "parent" (fun () ->
          T.with_span "cheap" (fun () -> ());
          T.with_span "costly" (fun () -> Unix.sleepf 0.02));
      let p = T.snapshot () in
      match (get_span p [ "parent" ]).T.children with
      | { T.span_name = "costly"; _ } :: { T.span_name = "cheap"; _ } :: [] ->
          ()
      | children ->
          Alcotest.failf "children not sorted by total_s desc: [%s]"
            (String.concat "; "
               (List.map (fun s -> s.T.span_name) children)))

let span_exception_safe =
  fresh (fun () ->
      (try T.with_span "throws" (fun () -> failwith "boom")
       with Failure _ -> ());
      T.with_span "after" (fun () -> ());
      let p = T.snapshot () in
      Alcotest.(check int) "raising span is still charged" 1
        (get_span p [ "throws" ]).T.calls;
      Alcotest.(check bool) "stack unwound: next span is a sibling, not a child"
        true
        (find_span p [ "throws"; "after" ] = None
        && find_span p [ "after" ] <> None))

(* --- counters and distributions ------------------------------------ *)

let counters_accumulate =
  fresh (fun () ->
      T.count "solves" 3;
      T.count "solves" 4;
      T.count "hits" 1;
      let p = T.snapshot () in
      Alcotest.(check (option int)) "increments add" (Some 7)
        (T.find_counter p "solves");
      Alcotest.(check (option int)) "independent counter" (Some 1)
        (T.find_counter p "hits");
      Alcotest.(check (option int)) "absent counter" None
        (T.find_counter p "misses"))

let dist_statistics =
  fresh (fun () ->
      List.iter (T.observe "lat") [ 4.0; 1.0; 3.0; 2.0; 5.0 ];
      let p = T.snapshot () in
      let d =
        match T.find_dist p "lat" with
        | Some d -> d
        | None -> Alcotest.fail "distribution missing"
      in
      Alcotest.(check int) "count" 5 d.T.d_count;
      Alcotest.(check (float 1e-9)) "min" 1.0 d.T.d_min;
      Alcotest.(check (float 1e-9)) "max" 5.0 d.T.d_max;
      Alcotest.(check (float 1e-9)) "mean" 3.0 (T.mean d);
      Alcotest.(check (float 1e-9)) "p50 (nearest rank)" 3.0
        (T.percentile d 0.5);
      Alcotest.(check (float 1e-9)) "p100 is the max" 5.0
        (T.percentile d 1.0))

let dist_empty_edge_cases =
  fresh (fun () ->
      (* A distribution nobody observed: statistics must be total, not
         raise on the empty sample. *)
      let d =
        { T.d_count = 0; d_sum = 0.0; d_min = infinity; d_max = neg_infinity;
          d_samples = [||] }
      in
      Alcotest.(check (float 1e-9)) "empty mean is 0" 0.0 (T.mean d);
      Alcotest.(check (float 1e-9)) "empty p50 is 0" 0.0 (T.percentile d 0.5);
      Alcotest.(check (float 1e-9)) "empty p95 is 0" 0.0
        (T.percentile d 0.95))

let dist_single_sample =
  fresh (fun () ->
      T.observe "one" 7.25;
      let p = T.snapshot () in
      let d = Option.get (T.find_dist p "one") in
      Alcotest.(check int) "count" 1 d.T.d_count;
      (* Every quantile of a single observation is that observation. *)
      Alcotest.(check (float 1e-9)) "p50" 7.25 (T.percentile d 0.5);
      Alcotest.(check (float 1e-9)) "p95" 7.25 (T.percentile d 0.95);
      Alcotest.(check (float 1e-9)) "mean" 7.25 (T.mean d);
      Alcotest.(check (float 1e-9)) "min = max" d.T.d_min d.T.d_max)

let dist_sample_bound =
  fresh (fun () ->
      let n = (T.max_samples * 4) + 17 in
      for i = 1 to n do
        T.observe "big" (float_of_int i)
      done;
      let p = T.snapshot () in
      let d = Option.get (T.find_dist p "big") in
      Alcotest.(check int) "every observation counted" n d.T.d_count;
      Alcotest.(check bool)
        (Printf.sprintf "sample stays bounded (%d <= %d)"
           (Array.length d.T.d_samples) T.max_samples)
        true
        (Array.length d.T.d_samples <= T.max_samples);
      Alcotest.(check (float 1e-9)) "extrema exact despite sampling"
        (float_of_int n) d.T.d_max;
      (* Systematic sampling keeps the quantile estimate honest. *)
      let p50 = T.percentile d 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 %.0f within 10%% of the true median" p50)
        true
        (Float.abs (p50 -. (float_of_int n /. 2.0))
        < 0.1 *. float_of_int n))

(* --- merge --------------------------------------------------------- *)

let merge_with_prefix =
  fresh (fun () ->
      T.with_span "local" (fun () -> ());
      T.count "shared" 1;
      (* A detached profile, as a worker snapshot would be. *)
      let worker =
        {
          T.p_spans =
            [ { T.span_name = "inner"; calls = 2; total_s = 0.5; children = [] } ];
          p_counters = [ ("shared", 41); ("worker.only", 5) ];
          p_dists = [];
        }
      in
      T.merge ~prefix:[ "exp" ] worker;
      T.merge ~prefix:[ "exp" ] worker;
      let p = T.snapshot () in
      Alcotest.(check int) "grafted span adds across merges" 4
        (get_span p [ "exp"; "inner" ]).T.calls;
      Alcotest.(check (option int)) "counters add flat" (Some 83)
        (T.find_counter p "shared");
      Alcotest.(check (option int)) "worker-only counter appears" (Some 10)
        (T.find_counter p "worker.only");
      Alcotest.(check int) "local span untouched" 1
        (get_span p [ "local" ]).T.calls)

(* Many one-sample profiles (shards, requests, domains) merged into one
   distribution must sample the whole stream, as observing it would. *)
let merge_keeps_sampling =
  fresh (fun () ->
      for i = 1 to 2000 do
        T.merge
          {
            T.p_spans = [];
            p_counters = [];
            p_dists =
              [
                ( "merged",
                  { T.d_count = 1; d_sum = float_of_int i;
                    d_min = float_of_int i; d_max = float_of_int i;
                    d_samples = [| float_of_int i |] } );
              ];
          };
        T.observe "direct" (float_of_int i)
      done;
      let p = T.snapshot () in
      let merged = Option.get (T.find_dist p "merged")
      and direct = Option.get (T.find_dist p "direct") in
      Alcotest.(check int) "every merged observation counted" 2000
        merged.T.d_count;
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "merged p%.0f equals direct" (q *. 100.0))
            (T.percentile direct q) (T.percentile merged q))
        [ 0.5; 0.95 ])

let merge_from_forked_worker =
  fresh (fun () ->
      T.count "parent.units" 1;
      let job =
        S.spawn ~timeout_s:30.0 ~name:"telemetry-fork" (fun () ->
            (* The worker inherits enabled=true across the fork; profile
               only its own work, as a prefixed pool job does. *)
            T.reset ();
            T.with_span "work" (fun () -> T.count "worker.units" 11);
            T.snapshot ())
      in
      let rec await () =
        match S.wait [ job ] with _, [ (_, r) ] -> r | _ -> await ()
      in
      match await () with
      | Result.Error e -> Alcotest.failf "worker failed: %s" (E.to_string e)
      | Ok worker_profile ->
          T.merge ~prefix:[ "fork" ] worker_profile;
          let p = T.snapshot () in
          Alcotest.(check int) "worker span crossed the pipe" 1
            (get_span p [ "fork"; "work" ]).T.calls;
          Alcotest.(check (option int))
            "worker counter crossed the pipe" (Some 11)
            (T.find_counter p "worker.units");
          (* The parent's own counters coexist. *)
          Alcotest.(check (option int)) "parent counter kept" (Some 1)
            (T.find_counter p "parent.units");
          (* A pool job with a prefix: the worker profiles itself, the
             pool grafts the snapshot and charges each prefix node one
             call and the worker's wall time. *)
          let job =
            S.spawn ~telemetry_prefix:[ "pool"; "job" ] ~name:"telemetry-prefix"
              (fun () -> T.with_span "work" (fun () -> Unix.sleepf 0.01))
          in
          let rec reap () =
            match S.wait [ job ] with
            | _, [ (_, Ok ()) ] -> ()
            | _, [ (_, Result.Error e) ] ->
                Alcotest.failf "worker failed: %s" (E.to_string e)
            | _ -> reap ()
          in
          reap ();
          let p = T.snapshot () in
          let rec check_chain = function
            | parent :: (child :: _ as rest) ->
                let s = get_span p parent and c = get_span p child in
                Alcotest.(check int)
                  (String.concat "/" parent ^ " charged one call")
                  1 s.T.calls;
                Alcotest.(check bool)
                  (String.concat "/" parent ^ " covers its child")
                  true
                  (s.T.total_s >= c.T.total_s);
                check_chain rest
            | _ -> ()
          in
          check_chain [ [ "pool" ]; [ "pool"; "job" ]; [ "pool"; "job"; "work" ] ])

(* --- serialization ------------------------------------------------- *)

let sample_profile () =
  T.with_span "a" (fun () ->
      T.with_span "b" (fun () -> ());
      T.with_span "b" (fun () -> ()));
  T.count "k" 42;
  List.iter (T.observe "d") [ 1.0; 2.0; 3.0; 4.0 ];
  T.snapshot ()

let json_roundtrip =
  fresh (fun () ->
      let p = sample_profile () in
      let text = C.json_to_string (T.to_json p) in
      let json =
        match C.json_of_string text with
        | Ok j -> j
        | Result.Error e -> Alcotest.failf "reparse: %s" (E.to_string e)
      in
      match T.of_json json with
      | Result.Error e -> Alcotest.failf "of_json: %s" (E.to_string e)
      | Ok p' ->
          Alcotest.(check int) "span calls survive" 2
            (get_span p' [ "a"; "b" ]).T.calls;
          Alcotest.(check (option int)) "counters survive" (Some 42)
            (T.find_counter p' "k");
          let d = Option.get (T.find_dist p' "d") in
          Alcotest.(check int) "dist count survives" 4 d.T.d_count;
          Alcotest.(check (float 1e-9)) "dist mean survives" 2.5 (T.mean d);
          Alcotest.(check (float 1e-9)) "dist samples survive (p50)"
            (T.percentile (Option.get (T.find_dist p "d")) 0.5)
            (T.percentile d 0.5))

let of_json_rejects_garbage () =
  (match T.of_json (C.Str "nope") with
  | Ok _ -> Alcotest.fail "accepted a non-object profile"
  | Result.Error e ->
      Alcotest.(check bool) "typed parse error" true (e.E.code = E.Parse_error));
  match T.of_json (C.Obj [ ("version", C.Num 1.0) ]) with
  | Ok _ -> Alcotest.fail "accepted a profile missing its spans"
  | Result.Error _ -> ()

let save_load_roundtrip =
  fresh (fun () ->
      let p = sample_profile () in
      let dir = Filename.temp_file "telemetry" ".d" in
      Sys.remove dir;
      let path = Filename.concat dir "profile.json" in
      (match T.save ~path p with
      | Ok () -> ()
      | Result.Error e -> Alcotest.failf "save: %s" (E.to_string e));
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove path with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () ->
          match T.load ~path with
          | Result.Error e -> Alcotest.failf "load: %s" (E.to_string e)
          | Ok p' ->
              Alcotest.(check int) "file round-trip preserves spans" 1
                (get_span p' [ "a" ]).T.calls;
              Alcotest.(check (option int))
                "file round-trip preserves counters" (Some 42)
                (T.find_counter p' "k")))

let load_missing_is_typed () =
  match T.load ~path:"/nonexistent/profile.json" with
  | Ok _ -> Alcotest.fail "loaded a profile from nowhere"
  | Result.Error e ->
      Alcotest.(check bool) "missing file is a typed io error" true
        (e.E.code = E.Io_error)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "telemetry"
    [
      ( "disabled",
        [
          tc "disabled entry points are identities" disabled_is_identity;
          tc "disabled count/observe do not allocate" disabled_zero_alloc;
        ] );
      ( "spans",
        [
          tc "nesting" span_nesting;
          tc "aggregation by path" span_aggregation;
          tc "children sorted by cost" span_ordering;
          tc "exception safety" span_exception_safe;
        ] );
      ( "metrics",
        [
          tc "counters accumulate" counters_accumulate;
          tc "distribution statistics" dist_statistics;
          tc "empty distribution statistics are total" dist_empty_edge_cases;
          tc "single-sample quantiles" dist_single_sample;
          tc "sample reservoir stays bounded" dist_sample_bound;
        ] );
      ( "merge",
        [
          tc "merge with prefix" merge_with_prefix;
          tc "merge from a forked worker" merge_from_forked_worker;
          tc "merged quantiles sample every merge" merge_keeps_sampling;
        ] );
      ( "serialization",
        [
          tc "JSON round-trip" json_roundtrip;
          tc "of_json rejects garbage" of_json_rejects_garbage;
          tc "save/load round-trip" save_load_roundtrip;
          tc "load of missing file is typed" load_missing_is_typed;
        ] );
    ]
