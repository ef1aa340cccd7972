(* Fault-injection suite: perturbed inputs (NaN device parameters, truncated
   BLIF, zero-capacitance nodes, combinational loops, ...) must surface as
   typed Cnt_error results with the right stage and code — never as an
   escaping exception. *)

module R = Runtime.Cnt_error
module F = Runtime.Fault
module C = Spice.Circuit
module T = Spice.Tech
module N = Nets.Netlist
module Blif = Nets.Blif
module Check = Nets.Check

let code = Alcotest.testable (fun ppf c -> Format.pp_print_string ppf (R.code_name c)) ( = )

let expect_graceful ~expected_code outcome =
  (match outcome.F.verdict with
  | F.Escaped exn -> Alcotest.failf "%s: exception escaped: %s" outcome.F.name exn
  | F.Survived -> Alcotest.failf "%s: fault was silently absorbed" outcome.F.name
  | F.Graceful e -> Alcotest.check code (outcome.F.name ^ " code") expected_code e.R.code);
  outcome

let context_key k outcome =
  match outcome.F.verdict with
  | F.Graceful e ->
      Alcotest.(check bool)
        (outcome.F.name ^ " has " ^ k ^ " context")
        true
        (List.mem_assoc k e.R.context)
  | _ -> Alcotest.failf "%s: expected a typed error" outcome.F.name

(* ------------------------------------------------------------------ *)
(* BLIF parser error paths *)

let parse s = Blif.parse_string s

let blif_fault ~name ~expected_code ?(line = true) text =
  let o =
    expect_graceful ~expected_code
      (F.inject ~name ~description:"blif" (fun () -> parse text))
  in
  if line then context_key "line" o

let blif_malformed_names () =
  blif_fault ~name:"names-no-signals" ~expected_code:R.Parse_error
    ".model m\n.inputs a\n.outputs y\n.names\n.end\n";
  blif_fault ~name:"bad-cover-row" ~expected_code:R.Parse_error
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n1q 1\n.end\n";
  blif_fault ~name:"cover-width-mismatch" ~expected_code:R.Parse_error
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n";
  blif_fault ~name:"mixed-cover" ~expected_code:R.Parse_error
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
  blif_fault ~name:"unsupported-directive" ~expected_code:R.Unsupported
    ".model m\n.inputs a\n.outputs y\n.latch a y\n.end\n";
  blif_fault ~name:"unexpected-line" ~expected_code:R.Parse_error
    ".model m\ngarbage here\n.end\n"

let blif_truncated () =
  (* A partially-written file: truncate a valid BLIF at various fractions.
     The exact diagnosis depends on where the cut lands (missing .end,
     half a directive, a re-driven net), but every truncation must be
     rejected with a typed error — never accepted, never an exception. *)
  let full =
    ".model m\n.inputs a b c\n.outputs y\n.names a b t\n11 1\n.names t c y\n10 1\n.end\n"
  in
  List.iter
    (fun fraction ->
      let text = F.truncate_text ~fraction full in
      let o =
        F.inject
          ~name:(Printf.sprintf "truncated-%.2f" fraction)
          ~description:"truncated blif" (fun () -> parse text)
      in
      Alcotest.(check bool)
        (Printf.sprintf "truncated %.2f rejected with typed error" fraction)
        true (F.graceful o))
    [ 0.95; 0.8; 0.6; 0.4 ]

let blif_truncated_fixture () =
  match Blif.parse_file "fixtures/truncated.blif" with
  | Ok _ -> Alcotest.fail "truncated fixture must not parse"
  | Error e ->
      Alcotest.check code "code" R.Parse_error e.R.code;
      Alcotest.(check (option string)) "line" (Some "5") (List.assoc_opt "line" e.R.context);
      Alcotest.(check bool) "file context" true (List.mem_assoc "file" e.R.context)

let blif_duplicate_model () =
  blif_fault ~name:"dup-model" ~expected_code:R.Parse_error
    ".model m\n.inputs a\n.outputs y\n.model m2\n.names a y\n1 1\n.end\n";
  match Blif.parse_file "fixtures/dup_model.blif" with
  | Ok _ -> Alcotest.fail "duplicate model fixture must not parse"
  | Error e ->
      Alcotest.check code "code" R.Parse_error e.R.code;
      Alcotest.(check (option string))
        "first model name" (Some "dup")
        (List.assoc_opt "first_model" e.R.context);
      Alcotest.(check (option string)) "line" (Some "4") (List.assoc_opt "line" e.R.context)

let blif_multiply_driven () =
  blif_fault ~name:"driven-twice" ~expected_code:R.Multiply_driven_net
    ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n";
  blif_fault ~name:"input-redriven" ~expected_code:R.Multiply_driven_net
    ".model m\n.inputs a b\n.outputs y\n.names b a\n1 1\n.names a y\n1 1\n.end\n"

let blif_loops_and_undriven () =
  blif_fault ~name:"self-loop" ~expected_code:R.Combinational_loop
    ".model m\n.inputs a\n.outputs y\n.names a y z\n11 1\n.names z y\n1 1\n.names y z q\n11 1\n.end\n";
  (match Blif.parse_file "fixtures/loop.blif" with
  | Ok _ -> Alcotest.fail "loop fixture must not parse"
  | Error e ->
      Alcotest.check code "loop fixture code" R.Combinational_loop e.R.code;
      Alcotest.(check bool) "cycle context" true (List.mem_assoc "cycle" e.R.context));
  blif_fault ~name:"undriven-signal" ~expected_code:R.Undriven_net
    ".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n";
  blif_fault ~name:"undriven-output" ~expected_code:R.Undriven_net ~line:false
    ".model m\n.inputs a\n.outputs y\n.end\n"

let blif_good_fixture () =
  match Blif.parse_file "fixtures/good.blif" with
  | Error e -> Alcotest.failf "good fixture rejected: %s" (R.to_string e)
  | Ok nl ->
      Alcotest.(check int) "inputs" 3 (N.num_inputs nl);
      Alcotest.(check int) "outputs" 2 (N.num_outputs nl);
      let report = R.get_exn (Check.check nl) in
      Alcotest.(check bool) "well-formed" true (Check.clean report)

(* ------------------------------------------------------------------ *)
(* Spice faults *)

let nan_device_param () =
  List.iter
    (fun (name, corrupt) ->
      ignore
        (expect_graceful ~expected_code:R.Non_finite
           (F.inject ~name ~description:"corrupted model card" (fun () ->
                Result.map (fun _ -> ()) (T.validate (corrupt T.cntfet))))))
    [
      ("nan-vth", fun t -> { t with T.vth_n = F.corrupt_float `Nan t.T.vth_n });
      ("inf-vdd", fun t -> { t with T.vdd = F.corrupt_float `Pos_inf t.T.vdd });
      ("nan-tau", fun t -> { t with T.tau = F.corrupt_float `Nan t.T.tau });
    ];
  (* Non-finite parameters are also rejected on the way into a transient
     simulation, through Circuit.validate. *)
  let bad = { T.cntfet with T.vth_n = Float.nan } in
  let c = C.create () in
  let vdd = C.node c "vdd" and out = C.node c "out" and g = C.node c "g" in
  C.add_vsource c vdd 0.9;
  C.add_transistor c (Spice.Device.Nmos bad) ~d:out ~g ~s:C.ground ();
  let o =
    F.inject ~name:"nan-vth-simulate" ~description:"NaN Vth reaches simulate"
      (fun () ->
        Spice.Transient.simulate_checked c
          ~caps:[ (out, 1e-15) ]
          ~drives:[ (g, Spice.Transient.step ~low:0.0 ~high:0.9 ()) ]
          ~tstop:1e-11 [ out ])
  in
  ignore (expect_graceful ~expected_code:R.Non_finite o)

let zero_cap_node () =
  let c = C.create () in
  let src = C.node c "src" and top = C.node c "top" in
  C.add_resistor c src top 1e5;
  let stim = Spice.Transient.step ~low:0.9 ~high:0.0 () in
  let run caps =
    Spice.Transient.simulate_checked c ~caps ~drives:[ (src, stim) ] ~tstop:1e-10 [ top ]
  in
  let o =
    expect_graceful ~expected_code:R.Validation_error
      (F.inject ~name:"zero-cap-free-node" ~description:"cap omitted" (fun () -> run []))
  in
  context_key "nodes" o;
  ignore
    (expect_graceful ~expected_code:R.Validation_error
       (F.inject ~name:"explicit-zero-cap" ~description:"cap = 0" (fun () ->
            run [ (top, 0.0) ])));
  ignore
    (expect_graceful ~expected_code:R.Non_finite
       (F.inject ~name:"nan-cap" ~description:"cap = NaN" (fun () ->
            run [ (top, Float.nan) ])));
  ignore
    (expect_graceful ~expected_code:R.Validation_error
       (F.inject ~name:"negative-cap" ~description:"cap < 0" (fun () ->
            run [ (top, -1e-15) ])))

let nan_stimulus () =
  let c = C.create () in
  let src = C.node c "src" and top = C.node c "top" in
  C.add_resistor c src top 1e5;
  ignore
    (expect_graceful ~expected_code:R.Non_finite
       (F.inject ~name:"nan-stimulus" ~description:"stimulus returns NaN" (fun () ->
            Spice.Transient.simulate_checked c
              ~caps:[ (top, 1e-15) ]
              ~drives:[ (src, fun _ -> Float.nan) ]
              ~tstop:1e-10 [ top ])))

let invalid_elements () =
  (* Construction-time validation raises typed errors; a protect boundary
     turns them into results. *)
  List.iter
    (fun (name, build) ->
      let o =
        F.inject ~name ~description:"invalid element"
          (fun () -> R.protect ~stage:R.Spice build)
      in
      match o.F.verdict with
      | F.Graceful _ -> ()
      | F.Survived -> Alcotest.failf "%s: accepted" name
      | F.Escaped e -> Alcotest.failf "%s: escaped: %s" name e)
    [
      ( "negative-resistor",
        fun () ->
          let c = C.create () in
          C.add_resistor c (C.node c "a") (C.node c "b") (-10.0) );
      ( "nan-resistor",
        fun () ->
          let c = C.create () in
          C.add_resistor c (C.node c "a") (C.node c "b") Float.nan );
      ( "nan-source",
        fun () ->
          let c = C.create () in
          C.add_vsource c (C.node c "a") Float.nan );
      ( "source-on-ground",
        fun () ->
          let c = C.create () in
          C.add_vsource c C.ground 0.9 );
    ]

let step_budget_exhaustion () =
  (* dv_max so small that tstop needs ~1e9 steps: the solver must fail with
     a typed convergence error instead of silently returning a partial
     waveform (the pre-hardening behavior). *)
  let c = C.create () in
  let src = C.node c "src" and top = C.node c "top" in
  C.add_resistor c src top 1e5;
  let stim = Spice.Transient.step ~t0:1e-12 ~rise:1e-13 ~low:0.9 ~high:0.0 () in
  let o =
    F.inject ~name:"step-budget" ~description:"dv_max too small for tstop"
      (fun () ->
        Spice.Transient.simulate_checked c
          ~caps:[ (top, 1e-15) ]
          ~drives:[ (src, stim) ]
          ~tstop:600e-12 ~dv_max:1e-12 ~max_retries:0 [ top ])
  in
  let o = expect_graceful ~expected_code:R.Convergence_failure o in
  context_key "retries" o

let diagnostics_reported () =
  let c = C.create () in
  let src = C.node c "src" and top = C.node c "top" in
  C.add_resistor c src top 1e5;
  let stim = Spice.Transient.step ~t0:5e-12 ~low:0.9 ~high:0.0 () in
  match
    Spice.Transient.simulate_checked c
      ~caps:[ (top, 1e-15) ]
      ~drives:[ (src, stim) ]
      ~tstop:600e-12 [ top ]
  with
  | Error e -> Alcotest.failf "rc discharge failed: %s" (R.to_string e)
  | Ok (waves, diag) ->
      Alcotest.(check bool) "converged" true diag.Spice.Transient.converged;
      Alcotest.(check int) "no retries" 0 diag.Spice.Transient.retries;
      Alcotest.(check bool) "steps counted" true (diag.Spice.Transient.steps > 0);
      Alcotest.(check bool) "min_dt positive" true (diag.Spice.Transient.min_dt > 0.0);
      Alcotest.(check bool) "waveform present" true (List.mem_assoc top waves)

(* ------------------------------------------------------------------ *)
(* Netlist checker and harness *)

let check_reports () =
  let t = N.create () in
  let a = N.add_input t "a" and b = N.add_input t "b" in
  let y = N.add_node t N.And [| a; b |] in
  let _dead = N.add_node t N.Or [| a; b |] in
  N.add_output t "y" y;
  let r = R.get_exn (Check.check t) in
  Alcotest.(check int) "dangling" 1 r.Check.dangling_nodes;
  Alcotest.(check (list string)) "unused" [] r.Check.unused_inputs;
  let t2 = N.create () in
  let a2 = N.add_input t2 "a" in
  let _unused = N.add_input t2 "u" in
  N.add_output t2 "y" (N.add_node t2 N.Not [| a2 |]);
  let r2 = R.get_exn (Check.check t2) in
  Alcotest.(check (list string)) "unused input" [ "u" ] r2.Check.unused_inputs

let check_errors () =
  let t = N.create () in
  let a = N.add_input t "a" in
  N.add_output t "y" a;
  N.add_output t "y" a;
  (match Check.check t with
  | Ok _ -> Alcotest.fail "duplicate output accepted"
  | Error e -> Alcotest.check code "dup output" R.Multiply_driven_net e.R.code);
  let t2 = N.create () in
  let _ = N.add_input t2 "a" in
  (match Check.check t2 with
  | Ok _ -> Alcotest.fail "no outputs accepted"
  | Error e -> Alcotest.check code "no outputs" R.Validation_error e.R.code);
  let t3 = N.create () in
  let a3 = N.add_input t3 "x" in
  let _ = N.add_input t3 "x" in
  N.add_output t3 "y" a3;
  match Check.check t3 with
  | Ok _ -> Alcotest.fail "duplicate input accepted"
  | Error e -> Alcotest.check code "dup input" R.Validation_error e.R.code

let find_cycle_unit () =
  let deps = function
    | "a" -> [ "b" ]
    | "b" -> [ "c" ]
    | "c" -> [ "a" ]
    | _ -> []
  in
  (match Check.find_cycle ~nodes:[ "x"; "a" ] ~deps with
  | Some cycle -> Alcotest.(check int) "cycle length" 3 (List.length cycle)
  | None -> Alcotest.fail "cycle not found");
  let acyclic = function "a" -> [ "b"; "c" ] | "b" -> [ "c" ] | _ -> [] in
  Alcotest.(check bool)
    "acyclic" true
    (Check.find_cycle ~nodes:[ "a" ] ~deps:acyclic = None)

let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* The E1-E15 runner: each shard in a forked worker of a campaign. *)
module Cg = Experiments.Campaign

let run_shards ~strict shards =
  let runs_dir = Filename.temp_file "cntpower-faults" "" in
  Sys.remove runs_dir;
  let cfg =
    { (Cg.default_config ~campaign:"faults") with Cg.runs_dir; workers = 1; strict }
  in
  let shards =
    List.map (fun (id, run) -> { Cg.id; seed = 42L; patterns = 1; run }) shards
  in
  match Cg.run cfg shards with
  | Ok s -> (cfg, s)
  | Error e -> Alcotest.failf "run failed: %s" (R.to_string e)

let passes ~degraded:_ = []

let harness_keep_going () =
  let cfg, s =
    run_shards ~strict:false
      [
        ("good1", passes);
        ("bad", fun ~degraded:_ -> failwith "boom");
        ("good2", passes);
      ]
  in
  Alcotest.(check (list string)) "one failure" [ "bad" ] (Cg.quarantined s);
  Alcotest.(check int) "exit 10" 10 (Cg.exit_status cfg s);
  (match List.assoc "good2" s.Cg.results with
  | Cg.Done _ -> ()
  | _ -> Alcotest.fail "good2 must still run after bad fails");
  match List.assoc "bad" s.Cg.results with
  | Cg.Quarantined e ->
      Alcotest.check code "wrapped failure" R.Internal e.R.code;
      Alcotest.(check (option string))
        "shard context" (Some "bad")
        (List.assoc_opt "shard" e.R.context)
  | _ -> Alcotest.fail "bad must be quarantined"

let harness_strict () =
  let cfg, s =
    run_shards ~strict:true
      [
        ("good1", passes);
        ( "bad",
          fun ~degraded:_ -> R.failf R.Spice R.Convergence_failure "injected" );
        ("good2", passes);
      ]
  in
  Alcotest.(check int) "exit 11" 11 (Cg.exit_status cfg s);
  Alcotest.(check int) "good2 never leased" 2 s.Cg.leases;
  (match List.assoc "good2" s.Cg.results with
  | Cg.Skipped -> ()
  | _ -> Alcotest.fail "good2 must be skipped");
  match List.assoc "bad" s.Cg.results with
  | Cg.Quarantined e ->
      Alcotest.check code "typed failure preserved" R.Convergence_failure
        e.R.code
  | _ -> Alcotest.fail "bad must be quarantined"

let harness_all_pass () =
  let cfg, s = run_shards ~strict:false [ ("only", passes) ] in
  Alcotest.(check int) "exit 0" 0 (Cg.exit_status cfg s)

let injector_classification () =
  let escaped =
    Runtime.Fault.inject ~name:"escape" ~description:"raw exception" (fun () ->
        failwith "raw")
  in
  Alcotest.(check bool) "escaped detected" false (F.contained escaped);
  let survived =
    Runtime.Fault.inject ~name:"benign" ~description:"ok" (fun () -> Ok 42)
  in
  Alcotest.(check bool) "survived" true (F.contained survived);
  Alcotest.(check bool) "not graceful" false (F.graceful survived)

(* ------------------------------------------------------------------ *)
(* Acceptance: the four canonical faults of the issue, in one sweep. *)

let canonical_sweep () =
  let nan_tech = { T.cntfet with T.vth_n = Float.nan } in
  let outcomes =
    [
      F.inject ~name:"nan-device-param" ~description:"NaN Vth in the model card"
        (fun () -> Result.map ignore (T.validate nan_tech));
      F.inject ~name:"truncated-blif" ~description:"file cut mid-cover" (fun () ->
          Blif.parse_file "fixtures/truncated.blif");
      F.inject ~name:"zero-cap-node" ~description:"free node without cap" (fun () ->
          let c = C.create () in
          let src = C.node c "src" and top = C.node c "top" in
          C.add_resistor c src top 1e5;
          Spice.Transient.simulate_checked c ~caps:[]
            ~drives:[ (src, Spice.Transient.step ~low:0.9 ~high:0.0 ()) ]
            ~tstop:1e-10 [ top ]);
      F.inject ~name:"combinational-loop" ~description:"cyclic .names blocks"
        (fun () -> Blif.parse_file "fixtures/loop.blif");
    ]
  in
  let escaped = F.summarize null outcomes in
  Alcotest.(check int) "zero uncaught exceptions" 0 escaped;
  List.iter
    (fun o ->
      match o.F.verdict with
      | F.Graceful e ->
          Alcotest.(check bool)
            (o.F.name ^ " carries stage+code") true
            (R.stage_name e.R.stage <> "" && R.code_name e.R.code <> "")
      | _ -> Alcotest.failf "%s: expected typed error" o.F.name)
    outcomes

let () =
  Alcotest.run "faults"
    [
      ( "blif",
        [
          Alcotest.test_case "malformed .names" `Quick blif_malformed_names;
          Alcotest.test_case "truncated text" `Quick blif_truncated;
          Alcotest.test_case "truncated fixture" `Quick blif_truncated_fixture;
          Alcotest.test_case "duplicate model" `Quick blif_duplicate_model;
          Alcotest.test_case "multiply driven" `Quick blif_multiply_driven;
          Alcotest.test_case "loops and undriven" `Quick blif_loops_and_undriven;
          Alcotest.test_case "good fixture parses" `Quick blif_good_fixture;
        ] );
      ( "spice",
        [
          Alcotest.test_case "nan device param" `Quick nan_device_param;
          Alcotest.test_case "zero-cap node" `Quick zero_cap_node;
          Alcotest.test_case "nan stimulus" `Quick nan_stimulus;
          Alcotest.test_case "invalid elements" `Quick invalid_elements;
          Alcotest.test_case "step budget exhaustion" `Slow step_budget_exhaustion;
          Alcotest.test_case "diagnostics" `Quick diagnostics_reported;
        ] );
      ( "checker",
        [
          Alcotest.test_case "reports" `Quick check_reports;
          Alcotest.test_case "errors" `Quick check_errors;
          Alcotest.test_case "find_cycle" `Quick find_cycle_unit;
        ] );
      ( "harness",
        [
          Alcotest.test_case "keep-going" `Quick harness_keep_going;
          Alcotest.test_case "strict" `Quick harness_strict;
          Alcotest.test_case "all pass" `Quick harness_all_pass;
          Alcotest.test_case "injector classification" `Quick injector_classification;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "canonical fault sweep" `Quick canonical_sweep ] );
    ]
