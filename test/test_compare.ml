(* Cross-run comparison: layer tolerance semantics (one-sided self time
   with a jitter floor), two-sided counter and scalar drift, the
   regression exit code, JSON rendering, and a fault-injected slowdown
   caught end to end. *)

module Cp = Runtime.Compare
module T = Runtime.Telemetry
module C = Runtime.Checkpoint
module E = Runtime.Cnt_error

let leaf ?(calls = 1) name total =
  { T.span_name = name; calls; total_s = total; children = [] }

let profile ?(counters = []) spans =
  { T.p_spans = spans; p_counters = counters; p_dists = [] }

let verdict_of items name =
  match List.find_opt (fun i -> i.Cp.i_name = name) items with
  | Some i -> i.Cp.i_verdict
  | None -> Alcotest.failf "no item named %s" name

let check_verdict items name expected =
  Alcotest.(check string) name
    (Cp.verdict_name expected)
    (Cp.verdict_name (verdict_of items name))

(* --- span semantics ------------------------------------------------ *)

let span_tolerance_semantics () =
  let base =
    profile
      [
        leaf "same" 1.0;
        leaf "slower_ok" 1.0;
        leaf "slower_bad" 1.0;
        leaf "faster" 1.0;
        leaf "gone" 1.0;
      ]
  in
  let cur =
    profile
      [
        leaf "same" 1.0;
        leaf "slower_ok" 1.4;  (* +40% < default 50% tolerance *)
        leaf "slower_bad" 1.6; (* +60% > tolerance *)
        leaf "faster" 0.3;     (* one-sided: fast is never a failure *)
        leaf "new" 1.0;
      ]
  in
  let items = Cp.compare_profiles ~base cur in
  check_verdict items "same" Cp.Within;
  check_verdict items "slower_ok" Cp.Within;
  check_verdict items "slower_bad" Cp.Regressed;
  check_verdict items "faster" Cp.Improved;
  check_verdict items "gone" Cp.Missing;
  check_verdict items "new" Cp.Added

let jitter_floor_ignores_fast_spans () =
  (* 10x slowdown, but both sides sit under min_wall_s: scheduler noise,
     not a regression. *)
  let base = profile [ leaf "tiny" 0.001 ] in
  let cur = profile [ leaf "tiny" 0.010 ] in
  check_verdict (Cp.compare_profiles ~base cur) "tiny" Cp.Within;
  (* Crossing the floor re-arms the gate. *)
  let cur' = profile [ leaf "tiny" 0.2 ] in
  check_verdict (Cp.compare_profiles ~base cur') "tiny" Cp.Regressed

let node name total children =
  { T.span_name = name; calls = 1; total_s = total; children }

let nested_spans_compare_self_time () =
  (* [solve] takes 0.6 s more of an unchanged [exp]: [exp]'s own time
     falls from 0.7 to 0.1 s. *)
  let tree slow = [ node "exp" 1.0 [ leaf "solve" (if slow then 0.9 else 0.3) ] ] in
  let items = Cp.compare_profiles ~base:(profile (tree false)) (profile (tree true)) in
  Alcotest.(check (list string)) "one item per layer, no paths" [ "exp"; "solve" ]
    (List.map (fun i -> i.Cp.i_name) items);
  check_verdict items "exp" Cp.Improved;
  check_verdict items "solve" Cp.Regressed

let spread_slowdown_regresses () =
  (* techmap.map slows 60 % in each of 20 circuits; every path stays
     under min_wall_s, the layer does not. *)
  let run map_s =
    profile
      (List.init 20 (fun i ->
           node (Printf.sprintf "c%d" i) (0.07 +. map_s) [ leaf "techmap.map" map_s ]))
  in
  let items = Cp.compare_profiles ~base:(run 0.03) (run 0.048) in
  check_verdict items "techmap.map" Cp.Regressed;
  check_verdict items "c7" Cp.Within

let attempts_do_not_regress () =
  (* calls legitimately differ between runs (retries); only wall clock is
     compared. *)
  let base = profile [ leaf ~calls:1 "exp" 1.0 ] in
  let cur = profile [ leaf ~calls:3 "exp" 1.1 ] in
  check_verdict (Cp.compare_profiles ~base cur) "exp" Cp.Within

(* --- counters and scalars ------------------------------------------ *)

let counter_drift_is_two_sided () =
  let base = profile ~counters:[ ("solves", 100); ("hits", 100) ] [] in
  let up = profile ~counters:[ ("solves", 115); ("hits", 100) ] [] in
  let down = profile ~counters:[ ("solves", 85); ("hits", 100) ] [] in
  check_verdict (Cp.compare_profiles ~base up) "solves" Cp.Regressed;
  (* Fewer solves is drift too — determinism, not speed, is the contract. *)
  check_verdict (Cp.compare_profiles ~base down) "solves" Cp.Regressed;
  check_verdict (Cp.compare_profiles ~base up) "hits" Cp.Within

let manifest_scalars_compared () =
  let man scalars =
    {
      C.run_name = "t";
      created = 0.0;
      entries =
        [
          C.entry ~experiment:"table1" ~seed:42L ~patterns:256 ~wall_time:1.0
            ~attempts:1 ~status:C.Passed scalars;
        ];
    }
  in
  let base = man [ ("p_avg_uw", 1.00) ] in
  let cur = man [ ("p_avg_uw", 1.20) ] (* 20% > 5% scalar rtol *) in
  let items = Cp.compare_manifests ~base cur in
  check_verdict items "table1/p_avg_uw" Cp.Regressed

let tolerances_are_configurable () =
  let tol = { Cp.default with Cp.wall_rtol = 2.0 } in
  let base = profile [ leaf "exp" 1.0 ] in
  let cur = profile [ leaf "exp" 2.5 ] in
  check_verdict (Cp.compare_profiles ~tol ~base cur) "exp" Cp.Within;
  check_verdict (Cp.compare_profiles ~base cur) "exp" Cp.Regressed

(* --- regression gate ----------------------------------------------- *)

let clean_report_has_no_error () =
  let base = profile ~counters:[ ("k", 10) ] [ leaf "exp" 1.0 ] in
  let items = Cp.compare_profiles ~base base in
  let report = { Cp.tol = Cp.default; items } in
  Alcotest.(check bool) "identical runs compare clean" true
    (Cp.regression_error report = None);
  Alcotest.(check int) "no regressions listed" 0
    (List.length (Cp.regressions report))

let injected_slowdown_exits_28 () =
  (* Fault injection: take a healthy profile, artificially slow one span
     past tolerance, and check the failure is typed all the way to the
     process exit code. *)
  let base =
    profile ~counters:[ ("solves", 50) ]
      [ leaf "table1" 2.0; leaf "seq" 1.0 ]
  in
  let slowed =
    profile ~counters:[ ("solves", 50) ]
      [ leaf "table1" (2.0 *. 1.8); leaf "seq" 1.0 ]
  in
  let report =
    { Cp.tol = Cp.default; items = Cp.compare_profiles ~base slowed }
  in
  match Cp.regression_error report with
  | None -> Alcotest.fail "injected slowdown not caught"
  | Some e ->
      Alcotest.(check bool) "typed regression code" true
        (e.E.code = E.Regression);
      Alcotest.(check int) "distinct exit code" 28 (E.exit_code e);
      Alcotest.(check (option string)) "offender count in context"
        (Some "1")
        (List.assoc_opt "regressed" e.E.context);
      Alcotest.(check bool) "offender named in context" true
        (match List.assoc_opt "worst" e.E.context with
        | Some worst -> worst = "table1"
        | None -> false)

(* --- rendering ----------------------------------------------------- *)

let delta_rel_math () =
  let item verdict b c =
    { Cp.i_kind = Cp.Span; i_name = "x"; i_base = b; i_cur = c;
      i_verdict = verdict }
  in
  (match Cp.delta_rel (item Cp.Within (Some 2.0) (Some 3.0)) with
  | Some d -> Alcotest.(check (float 1e-9)) "+50%" 0.5 d
  | None -> Alcotest.fail "delta missing");
  Alcotest.(check bool) "no delta against zero base" true
    (Cp.delta_rel (item Cp.Within (Some 0.0) (Some 1.0)) = None);
  Alcotest.(check bool) "no delta for added items" true
    (Cp.delta_rel (item Cp.Added None (Some 1.0)) = None)

let json_report_roundtrips () =
  let base = profile ~counters:[ ("k", 10) ] [ leaf "exp" 1.0 ] in
  let cur = profile ~counters:[ ("k", 20) ] [ leaf "exp" 1.9 ] in
  let report =
    { Cp.tol = Cp.default; items = Cp.compare_profiles ~base cur }
  in
  let text = C.json_to_string (Cp.to_json report) in
  match C.json_of_string text with
  | Result.Error e -> Alcotest.failf "reparse: %s" (E.to_string e)
  | Ok (C.Obj fields) ->
      (match List.assoc_opt "regressions" fields with
      | Some (C.Num n) ->
          Alcotest.(check int) "regression count in JSON" 2 (int_of_float n)
      | _ -> Alcotest.fail "no regressions field");
      (match List.assoc_opt "items" fields with
      | Some (C.Arr items) ->
          Alcotest.(check int) "every item rendered"
            (List.length report.Cp.items)
            (List.length items)
      | _ -> Alcotest.fail "no items array")
  | Ok _ -> Alcotest.fail "report is not an object"

let human_rendering_smoke () =
  let base = profile ~counters:[ ("k", 10) ] [ leaf "exp" 1.0 ] in
  let cur = profile ~counters:[ ("k", 10) ] [ leaf "exp" 2.5 ] in
  let report =
    { Cp.tol = Cp.default; items = Cp.compare_profiles ~base cur }
  in
  let text = Format.asprintf "%a" Cp.pp report in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering mentions %S" needle)
        true (contains needle))
    [ "regressed"; "exp"; "within tolerance" ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "compare"
    [
      ( "spans",
        [
          tc "tolerance semantics" span_tolerance_semantics;
          tc "jitter floor" jitter_floor_ignores_fast_spans;
          tc "nested spans compare on self time" nested_spans_compare_self_time;
          tc "a slowdown spread over paths regresses" spread_slowdown_regresses;
          tc "attempt counts are not compared" attempts_do_not_regress;
        ] );
      ( "drift",
        [
          tc "counter drift is two-sided" counter_drift_is_two_sided;
          tc "manifest scalars compared"
            manifest_scalars_compared;
          tc "tolerances are configurable" tolerances_are_configurable;
        ] );
      ( "gate",
        [
          tc "clean comparison has no error" clean_report_has_no_error;
          tc "injected slowdown exits 28" injected_slowdown_exits_28;
        ] );
      ( "rendering",
        [
          tc "delta_rel math" delta_rel_math;
          tc "JSON report round-trips" json_report_roundtrips;
          tc "human rendering smoke" human_rendering_smoke;
        ] );
    ]
