(* Trace correlation: counter-based id minting, propagation across
   Supervisor forks and Dpool domains, journal stamping, and the
   per-request slicing that `cntpower trace --request` is built on. *)

module Tc = Runtime.Tracectx
module Jn = Runtime.Journal
module T = Runtime.Telemetry
module E = Runtime.Cnt_error
module S = Runtime.Supervisor
module Tr = Runtime.Trace_export
module C = Runtime.Checkpoint

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

(* Tests install contexts; always leave the domain clean. *)
let fresh f () =
  Tc.set None;
  Fun.protect ~finally:(fun () -> Tc.set None) f

(* --- minting ------------------------------------------------------- *)

let minting_shape =
  fresh (fun () ->
      let pid = string_of_int (Unix.getpid ()) in
      let a = Tc.mint_root () in
      let b = Tc.mint_root () in
      Alcotest.(check bool) "trace ids carry this pid" true
        (String.length a.Tc.trace_id > 2
        && String.sub a.Tc.trace_id 0 1 = "t"
        && String.sub a.Tc.trace_id 1 (String.length pid) = pid);
      Alcotest.(check bool) "roots have no parent" true
        (a.Tc.parent_id = None && b.Tc.parent_id = None);
      Alcotest.(check bool) "consecutive mints are distinct" true
        (a.Tc.trace_id <> b.Tc.trace_id && a.Tc.span_id <> b.Tc.span_id);
      let c = Tc.child a in
      Alcotest.(check string) "child stays in the trace" a.Tc.trace_id
        c.Tc.trace_id;
      Alcotest.(check (option string)) "child points at its parent span"
        (Some a.Tc.span_id) c.Tc.parent_id;
      Alcotest.(check bool) "child gets its own span" true
        (c.Tc.span_id <> a.Tc.span_id))

let with_ctx_restores =
  fresh (fun () ->
      let outer = Tc.mint_root () in
      Tc.set (Some outer);
      let inner = Tc.mint_root () in
      let seen = Tc.with_ctx inner (fun () -> Tc.current ()) in
      Alcotest.(check (option string)) "inner installed"
        (Some inner.Tc.span_id)
        (Option.map (fun c -> c.Tc.span_id) seen);
      Alcotest.(check (option string)) "outer restored"
        (Some outer.Tc.span_id)
        (Option.map (fun c -> c.Tc.span_id) (Tc.current ()));
      (match Tc.with_ctx inner (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check (option string)) "restored on exception too"
        (Some outer.Tc.span_id)
        (Option.map (fun c -> c.Tc.span_id) (Tc.current ())))

let fields_roundtrip =
  fresh (fun () ->
      let root = Tc.mint_root () in
      let ctx = Tc.child root in
      Alcotest.(check (option string)) "fields round-trip a child"
        (Some ctx.Tc.span_id)
        (Option.map
           (fun c -> c.Tc.span_id)
           (Tc.of_fields (Tc.to_fields ctx)));
      Alcotest.(check bool) "root renders no parent field" true
        (not (List.mem_assoc "parent" (Tc.to_fields root)));
      Alcotest.(check (option string)) "span label inverts"
        (Some ctx.Tc.trace_id)
        (Tc.trace_of_label (Tc.span_label ctx));
      Alcotest.(check (option string)) "non-label is not a trace" None
        (Tc.trace_of_label "serve.request"))

(* --- fork propagation ---------------------------------------------- *)

let fork_derives_child =
  fresh (fun () ->
      let ctx = Tc.mint_root () in
      Tc.set (Some ctx);
      let outcome =
        S.run
          ~policy:{ S.timeout_s = 30.0; retries = 0 }
          ~name:"tracectx-fork"
          (fun ~degraded:_ ->
            (* Runs in the forked worker: the supervisor must have
               replaced the inherited context with a child of it. *)
            match Tc.current () with
            | None -> []
            | Some c -> Tc.to_fields c)
      in
      let fields =
        match outcome.S.value with
        | Ok f -> f
        | Result.Error e -> Alcotest.failf "worker: %s" (E.to_string e)
      in
      let worker = Tc.of_fields fields in
      Alcotest.(check (option string)) "worker stays in the trace"
        (Some ctx.Tc.trace_id)
        (Option.map (fun c -> c.Tc.trace_id) worker);
      Alcotest.(check (option (option string)))
        "worker span is a child of the request span"
        (Some (Some ctx.Tc.span_id))
        (Option.map (fun c -> c.Tc.parent_id) worker);
      Alcotest.(check bool) "worker span is its own" true
        (Option.map (fun c -> c.Tc.span_id) worker <> Some ctx.Tc.span_id))

let journal_events_stamped =
  fresh (fun () ->
      let dir = temp_dir "tracectx" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          Jn.set_enabled true;
          Jn.set_verbosity None;
          Fun.protect
            ~finally:(fun () ->
              Jn.close_sink ();
              Jn.set_enabled false;
              Jn.set_verbosity (Some Jn.Info))
            (fun () ->
              let path = Filename.concat dir "events.jsonl" in
              E.get_exn (Jn.open_sink ~path ());
              let ctx = Tc.mint_root () in
              Tc.with_ctx ctx (fun () ->
                  Jn.emit Jn.Run_started [ ("run", "t") ];
                  let outcome =
                    S.run
                      ~policy:
                        { S.timeout_s = 30.0; retries = 0 }
                      ~name:"stamped"
                      (fun ~degraded:_ ->
                        Jn.emit ~level:Jn.Debug Jn.Experiment_started
                          [ ("experiment", "stamped") ];
                        Unix.getpid ())
                  in
                  match outcome.S.value with
                  | Ok _ -> ()
                  | Result.Error e ->
                      Alcotest.failf "worker: %s" (E.to_string e));
              (* Outside the context: no stamp. *)
              Jn.emit Jn.Run_finished [];
              Jn.close_sink ();
              let events, skipped =
                match Jn.load ~path with
                | Ok r -> r
                | Result.Error e ->
                    Alcotest.failf "load: %s" (E.to_string e)
              in
              Alcotest.(check int) "clean parse" 0 skipped;
              let stamped =
                List.filter
                  (fun e -> Jn.find e "trace" = Some ctx.Tc.trace_id)
                  events
              in
              (* Parent-side lifecycle events and the worker's own event
                 all carry the same trace id. *)
              let kinds = List.map (fun e -> e.Jn.ev_kind) stamped in
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (Jn.kind_name k ^ " stamped")
                    true (List.mem k kinds))
                [ Jn.Run_started; Jn.Worker_spawned; Jn.Experiment_started ];
              (* The worker's event is a child span: same trace, its own
                 span, parented under the request span. *)
              let worker_ev =
                List.find
                  (fun e -> e.Jn.ev_kind = Jn.Experiment_started)
                  stamped
              in
              Alcotest.(check (option string)) "worker event parented"
                (Some ctx.Tc.span_id)
                (Jn.find worker_ev "parent");
              let finished =
                List.find (fun e -> e.Jn.ev_kind = Jn.Run_finished) events
              in
              Alcotest.(check (option string)) "no context, no stamp" None
                (Jn.find finished "trace"))))

(* --- domain propagation -------------------------------------------- *)

let domains_inherit =
  fresh (fun () ->
      let ctx = Tc.mint_root () in
      Tc.set (Some ctx);
      let n = 8 in
      let seen = Array.make n "" in
      let (_ : Runtime.Dpool.stats) =
        Runtime.Dpool.run ~domains:2 ~min_units_per_domain:1 ~units:n
          (fun ~worker:_ ~lo ~len ->
            for i = lo to lo + len - 1 do
              seen.(i) <-
                (match Tc.current () with
                | Some c -> c.Tc.trace_id
                | None -> "<none>")
            done)
      in
      Array.iteri
        (fun i id ->
          Alcotest.(check string)
            (Printf.sprintf "unit %d sees the spawning trace" i)
            ctx.Tc.trace_id id)
        seen)

(* --- chrome trace + slicing ---------------------------------------- *)

(* A two-request serve-style fixture: each request has a trace:<id>
   telemetry subtree and journal events (admission on the server PID,
   work on the worker PID). *)
let slice_fixture () =
  let r1 = Tc.mint_root () in
  let r2 = Tc.mint_root () in
  let leaf name total =
    { T.span_name = name; calls = 1; total_s = total; children = [] }
  in
  let request ctx work =
    {
      T.span_name = Tc.span_label ctx;
      calls = 1;
      total_s = 0.2;
      children = [ leaf work 0.15 ];
    }
  in
  let profile =
    {
      T.p_spans =
        [
          {
            T.span_name = "serve.request";
            calls = 2;
            total_s = 0.4;
            children = [ request r1 "estimate-a"; request r2 "estimate-b" ];
          };
        ];
      p_counters = [];
      p_dists = [];
    }
  in
  let ev seq pid kind fields =
    {
      Jn.ev_seq = seq;
      ev_time = 1000.0 +. float_of_int seq;
      ev_pid = pid;
      ev_level = Jn.Debug;
      ev_kind = kind;
      ev_fields = fields;
    }
  in
  let events =
    [
      ev 1 100 Jn.Run_started [ ("run", "serve") ];
      ev 2 100 Jn.Request_admitted
        (("request", "1") :: Tc.to_fields r1);
      ev 3 100 Jn.Worker_spawned
        (("worker_pid", "201") :: Tc.to_fields r1);
      ev 4 100 Jn.Request_admitted
        (("request", "2") :: Tc.to_fields r2);
      ev 5 100 Jn.Worker_spawned
        (("worker_pid", "202") :: Tc.to_fields r2);
      ev 6 201 Jn.Solver_damped_retry (("retry", "1") :: Tc.to_fields r1);
      ev 7 100 Jn.Request_done (("request", "1") :: Tc.to_fields r1);
      ev 8 100 Jn.Request_done (("request", "2") :: Tc.to_fields r2);
    ]
  in
  (r1, r2, profile, events)

let slice_selects_one_request =
  fresh (fun () ->
      let r1, r2, profile, events = slice_fixture () in
      (* Resolution accepts the trace id itself or the request number. *)
      Alcotest.(check (option string)) "trace id resolves verbatim"
        (Some r1.Tc.trace_id)
        (Tr.resolve_trace_id ~events r1.Tc.trace_id);
      Alcotest.(check (option string)) "request number resolves"
        (Some r2.Tc.trace_id)
        (Tr.resolve_trace_id ~events "2");
      Alcotest.(check (option string)) "garbage does not resolve" None
        (Tr.resolve_trace_id ~events "nope");
      let sliced, evs = Tr.slice ~trace_id:r1.Tc.trace_id ~events profile in
      (* Exactly request 1's events: every event of r1, none of r2, and
         the untraced run_started dropped. *)
      Alcotest.(check int) "exactly request 1's events" 4 (List.length evs);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "every sliced event is r1's"
            (Some r1.Tc.trace_id) (Jn.find e "trace"))
        evs;
      (* The profile keeps just the trace:<id> subtree, promoted to the
         top level. *)
      Alcotest.(check int) "one subtree" 1 (List.length sliced.T.p_spans);
      let root = List.hd sliced.T.p_spans in
      Alcotest.(check string) "subtree is the request's"
        (Tc.span_label r1) root.T.span_name;
      Alcotest.(check bool) "request's work is inside" true
        (List.exists
           (fun (s : T.span) -> s.T.span_name = "estimate-a")
           root.T.children))

let trace_export_anchors_worker_track =
  fresh (fun () ->
      let r1, _, profile, events = slice_fixture () in
      let sliced, evs = Tr.slice ~trace_id:r1.Tc.trace_id ~events profile in
      let trace = Tr.to_trace ~events:evs sliced in
      let trace_events =
        match trace with
        | C.Obj fields -> (
            match List.assoc_opt "traceEvents" fields with
            | Some (C.Arr evs) -> evs
            | _ -> Alcotest.fail "no traceEvents")
        | _ -> Alcotest.fail "not an object"
      in
      let field name ev =
        match ev with
        | C.Obj fields -> List.assoc_opt name fields
        | _ -> None
      in
      (* The request's span subtree lands on the worker's PID track, as
         anchored by its worker_spawned event. *)
      let request_span =
        List.find_opt
          (fun ev ->
            field "ph" ev = Some (C.Str "X")
            && field "name" ev = Some (C.Str (Tc.span_label r1)))
          trace_events
      in
      (match request_span with
      | None -> Alcotest.fail "request span missing from chrome trace"
      | Some ev ->
          Alcotest.(check bool) "anchored on the worker PID track" true
            (field "pid" ev = Some (C.Num 201.0)));
      (* And only request 1's instants made it in. *)
      let instants =
        List.filter (fun ev -> field "ph" ev = Some (C.Str "i")) trace_events
      in
      Alcotest.(check int) "only the request's instants" 4
        (List.length instants))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tracectx"
    [
      ( "minting",
        [
          tc "root and child id structure" minting_shape;
          tc "with_ctx installs and restores" with_ctx_restores;
          tc "journal fields round-trip" fields_roundtrip;
        ] );
      ( "propagation",
        [
          tc "forked workers derive a child span" fork_derives_child;
          tc "journal events are stamped end-to-end" journal_events_stamped;
          tc "dpool domains inherit the context" domains_inherit;
        ] );
      ( "slicing",
        [
          tc "slice selects exactly one request" slice_selects_one_request;
          tc "chrome trace anchors the worker track"
            trace_export_anchors_worker_track;
        ] );
    ]
