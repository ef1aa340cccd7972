(* Telemetry registry: span nesting and aggregation, the per-layer
   rollup, counters, distribution statistics and their stated error,
   disabled-mode no-op guarantees, exact and order-free merges (across a
   real fork too), the daemon's bounded aggregate, and JSON/file
   round-trips. *)

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

(* A property's body owns the registry the way [fresh] gives it to a
   test case. *)
let enabled f x =
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () -> f x)

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

(* [b] sits under [a] and [e], [c] under [b] and [d]; [e]'s child
   outgrows it, so [e]'s self time reads negative. *)
let rollup_sums_names_over_the_forest () =
  let span ?(calls = 1) name total children =
    { T.span_name = name; calls; total_s = total; children }
  in
  let forest =
    [
      span "a" 10.0
        [
          span ~calls:2 "b" 4.0 [ span ~calls:3 "c" 1.0 [] ];
          span "d" 3.0 [ span "c" 0.5 [] ];
        ];
      span "e" 2.0 [ span "b" 2.5 [] ];
    ]
  in
  let layers = T.rollup forest in
  Alcotest.(check (list string))
    "one layer per name, largest self first" [ "b"; "a"; "d"; "c"; "e" ]
    (List.map (fun l -> l.T.l_name) layers);
  let row (l : T.layer) = (l.T.l_calls, l.T.l_total_s, l.T.l_self_s) in
  Alcotest.(check (list (triple int (float 1e-12) (float 1e-12))))
    "calls, total and self per name"
    [ (3, 6.5, 5.5); (1, 10.0, 3.0); (1, 3.0, 2.5); (4, 1.5, 1.5); (1, 2.0, -0.5) ]
    (List.map row layers);
  Alcotest.(check (float 1e-12)) "the self times add up to the roots' totals" 12.0
    (List.fold_left (fun acc l -> acc +. l.T.l_self_s) 0.0 layers);
  (* [stats] opens with the same rows. *)
  let text =
    Format.asprintf "%a" T.pp { T.p_spans = forest; p_counters = []; p_dists = [] }
  in
  match String.split_on_char '\n' text with
  | header :: first :: _ ->
      Alcotest.(check bool) "the layer table comes first" true
        (String.starts_with ~prefix:"layers" header);
      Alcotest.(check (list string)) "its first row is the largest self"
        [ "b"; "5.500000000" ]
        (List.filteri (fun i _ -> i < 2)
           (List.filter (( <> ) "") (String.split_on_char ' ' first)))
  | _ -> Alcotest.fail "no layer table"

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
      Alcotest.(check (float (3.0 *. T.relative_error))) "p50 (nearest rank)" 3.0
        (T.percentile d 0.5);
      Alcotest.(check (float 1e-9)) "p100 is the max" 5.0
        (T.percentile d 1.0))

let dist_empty_edge_cases =
  fresh (fun () ->
      (* A distribution nobody observed: statistics must be total, not
         raise on the empty sample. *)
      let d =
        { T.d_count = 0; d_sum = 0.0; d_min = infinity; d_max = neg_infinity;
          d_buckets = [||] }
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

let octaves lo hi = int_of_float (Float.log2 hi) - int_of_float (Float.log2 lo) + 1

let dist_bucket_bound =
  fresh (fun () ->
      let n = 2065 in
      for i = 1 to n do
        T.observe "big" (float_of_int i)
      done;
      for _ = 1 to 10_000 do
        T.observe "flat" 0.25
      done;
      let p = T.snapshot () in
      let d = Option.get (T.find_dist p "big") in
      Alcotest.(check int) "every observation counted" n d.T.d_count;
      let bound = 64 * octaves 1.0 (float_of_int n) in
      Alcotest.(check bool)
        (Printf.sprintf "%d buckets, at most 64 per octave (%d)"
           (Array.length d.T.d_buckets) bound)
        true
        (Array.length d.T.d_buckets <= bound);
      Alcotest.(check (float 1e-9)) "extrema exact despite bucketing"
        (float_of_int n) d.T.d_max;
      let flat = Option.get (T.find_dist p "flat") in
      Alcotest.(check int) "equal values share one bucket" 1
        (Array.length flat.T.d_buckets);
      Alcotest.(check (float 1e-9)) "and read back exactly" 0.25
        (T.percentile flat 0.5))

(* Values over 20 decades, with zeros and negatives. *)
let values =
  QCheck.Gen.(
    list_size (int_range 1 2000)
      (frequency
         [
           (1, return 0.0);
           ( 9,
             map2
               (fun neg e -> if neg then -.(10.0 ** e) else 10.0 ** e)
               bool (float_range (-10.0) 10.0) );
         ]))

let quantiles = [ 0.0; 0.1; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let quantiles_within_stated_error =
  QCheck.Test.make ~count:100 ~name:"quantiles within the stated error"
    (QCheck.make values)
    (enabled @@ fun vs ->
      T.reset ();
      List.iter (T.observe "d") vs;
      let d = Option.get (T.find_dist (T.snapshot ()) "d") in
      let sorted = Array.of_list (List.sort Float.compare vs) in
      let n = Array.length sorted in
      let sum = List.fold_left ( +. ) 0.0 vs in
      d.T.d_count = n
      && d.T.d_sum = sum
      && T.mean d = sum /. float_of_int n
      && d.T.d_min = sorted.(0)
      && d.T.d_max = sorted.(n - 1)
      && List.for_all
           (fun q ->
             let exact = sorted.(int_of_float ((float_of_int (n - 1) *. q) +. 0.5)) in
             Float.abs (T.percentile d q -. exact) <= T.relative_error *. Float.abs exact)
           quantiles)

(* Any partition of the values, one profile per part, merged in any order
   is the histogram of observing them all. *)
let partitioned_merge_is_exact =
  QCheck.Test.make ~count:100 ~name:"partitioned merge equals direct observation"
    QCheck.(make Gen.(pair values (int_bound 1_000_000)))
    (enabled @@ fun (vs, seed) ->
      let rng = Random.State.make [| seed |] in
      let parts = Array.make (1 + Random.State.int rng 16) [] in
      List.iter
        (fun v ->
          let i = Random.State.int rng (Array.length parts) in
          parts.(i) <- v :: parts.(i))
        vs;
      let profiles =
        Array.map
          (fun part ->
            T.reset ();
            List.iter (T.observe "d") part;
            (Random.State.bits rng, T.snapshot ()))
          parts
      in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) profiles;
      T.reset ();
      Array.iter (fun (_, p) -> T.merge p) profiles;
      let merged = Option.get (T.find_dist (T.snapshot ()) "d") in
      T.reset ();
      List.iter (T.observe "d") vs;
      let direct = Option.get (T.find_dist (T.snapshot ()) "d") in
      merged.T.d_buckets = direct.T.d_buckets
      && merged.T.d_count = direct.T.d_count
      && merged.T.d_min = direct.T.d_min
      && merged.T.d_max = direct.T.d_max)

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
   distribution, in any order, are the distribution observing them gives. *)
let merge_keeps_sampling =
  fresh (fun () ->
      let one i =
        let v = float_of_int i in
        { T.d_count = 1; d_sum = v; d_min = v; d_max = v; d_buckets = [| (v, 1) |] }
      in
      let forward = List.init 2000 (fun i -> i + 1) in
      let shuffled =
        let rng = Random.State.make [| 7 |] in
        List.map snd
          (List.sort compare (List.map (fun i -> (Random.State.bits rng, i)) forward))
      in
      List.iter
        (fun (name, order) ->
          List.iter
            (fun i -> T.merge { T.p_spans = []; p_counters = []; p_dists = [ (name, one i) ] })
            order)
        [ ("forward", forward); ("reversed", List.rev forward); ("shuffled", shuffled) ];
      List.iter (fun i -> T.observe "direct" (float_of_int i)) forward;
      let p = T.snapshot () in
      let direct = Option.get (T.find_dist p "direct") in
      Alcotest.(check (float 1e-9)) "p50 reads its bucket" 1004.0 (T.percentile direct 0.5);
      Alcotest.(check (float 1e-9)) "p95 reads its bucket" 1896.0 (T.percentile direct 0.95);
      List.iter
        (fun name ->
          let merged = Option.get (T.find_dist p name) in
          Alcotest.(check int) (name ^ ": every merged observation counted") 2000
            merged.T.d_count;
          Alcotest.(check bool) (name ^ ": buckets equal direct observation") true
            (merged.T.d_buckets = direct.T.d_buckets);
          List.iter
            (fun q ->
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s p%.0f equals direct" name (q *. 100.0))
                (T.percentile direct q) (T.percentile merged q))
            [ 0.5; 0.95 ])
        [ "forward"; "reversed"; "shuffled" ])

(* The daemon merges every request's profile under [serve.request]: the
   registry holds one node per stage however many requests it serves. *)
let request_aggregate_stays_bounded =
  fresh (fun () ->
      let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
      T.reset ();
      E.get_exn
        (Techmap.Flow.run ~domains:1 ~patterns:1024 ~name:"request" [ ml ] (fun () ->
             Circuits.Multiplier.generate ~width:3))
      |> ignore;
      let request = T.snapshot () in
      T.reset ();
      let after n =
        for _ = 1 to n do
          T.merge ~prefix:[ "serve.request" ] request
        done;
        let p = T.snapshot () in
        let layers =
          List.sort compare (List.map (fun l -> l.T.l_name) (T.rollup p.T.p_spans))
        in
        (p, layers, Obj.reachable_words (Obj.repr p))
      in
      let _, layers_100, words_100 = after 100 in
      let p, layers, words = after 9_900 in
      Alcotest.(check (list string)) "the same layers" layers_100 layers;
      Alcotest.(check int) "the same reachable words" words_100 words;
      Alcotest.(check int) "each stage counts every request" 10_000
        (get_span p [ "serve.request"; "flow.verify" ]).T.calls)

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
          Alcotest.(check bool) "dist buckets survive" true
            ((Option.get (T.find_dist p "d")).T.d_buckets = d.T.d_buckets))

(* A profile written before the histogram: its dists keep a sample. *)
let samples_format_loads =
  fresh (fun () ->
      let text =
        {|{"version": 1, "spans": [], "counters": {}, "dists": [{"name": "lat",
          "count": 6, "sum": 1010.5, "min": 0, "max": 1000, "mean": 168.4,
          "p50": 2.5, "p95": 1000, "samples": [4, 1, 3, 1000, 2.5, 0]}]}|}
      in
      let p = E.get_exn (Result.bind (C.json_of_string text) T.of_json) in
      let old = Option.get (T.find_dist p "lat") in
      List.iter (T.observe "direct") [ 4.0; 1.0; 3.0; 1000.0; 2.5; 0.0 ];
      let direct = Option.get (T.find_dist (T.snapshot ()) "direct") in
      Alcotest.(check bool) "samples folded into their buckets" true
        (old.T.d_buckets = direct.T.d_buckets);
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "p%.0f as observing the samples" (q *. 100.0))
            (T.percentile direct q) (T.percentile old q))
        quantiles)

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
          tc "rollup sums each name over the forest" rollup_sums_names_over_the_forest;
        ] );
      ( "metrics",
        [
          tc "counters accumulate" counters_accumulate;
          tc "distribution statistics" dist_statistics;
          tc "empty distribution statistics are total" dist_empty_edge_cases;
          tc "single-sample quantiles" dist_single_sample;
          tc "bucket count stays bounded" dist_bucket_bound;
          QCheck_alcotest.to_alcotest quantiles_within_stated_error;
        ] );
      ( "merge",
        [
          tc "merge with prefix" merge_with_prefix;
          tc "merge from a forked worker" merge_from_forked_worker;
          tc "merged quantiles sample every merge" merge_keeps_sampling;
          QCheck_alcotest.to_alcotest partitioned_merge_is_exact;
          tc "10 000 request profiles stay one aggregate"
            request_aggregate_stays_bounded;
        ] );
      ( "serialization",
        [
          tc "JSON round-trip" json_roundtrip;
          tc "a samples-format profile loads" samples_format_loads;
          tc "of_json rejects garbage" of_json_rejects_garbage;
          tc "save/load round-trip" save_load_roundtrip;
          tc "load of missing file is typed" load_missing_is_typed;
        ] );
    ]
