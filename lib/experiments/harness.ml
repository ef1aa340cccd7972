module E = Runtime.Cnt_error
module C = Runtime.Checkpoint
module S = Runtime.Supervisor
module T = Runtime.Telemetry
module Jn = Runtime.Journal
module Tc = Runtime.Tracectx

type mode = Keep_going | Strict

type status =
  | Passed of {
      wall : float;
      scalars : (string * float) list;
      degraded : bool;
      attempts : int;
    }
  | Failed of { wall : float; attempts : int; error : E.t }
  | Skipped
  | Resumed of C.entry

type entry = {
  name : string;
  doc : string;
  run : degraded:bool -> Format.formatter -> (string * float) list;
}

type config = {
  mode : mode;
  policy : S.policy option;
  run_name : string;
  manifest_path : string option;
  resume : bool;
  seed : int64;
  patterns : int;
}

let default_config =
  {
    mode = Keep_going;
    policy = None;
    run_name = "all";
    manifest_path = None;
    resume = false;
    seed = 42L;
    patterns = Techmap.Estimate.default_patterns;
  }

type summary = { mode : mode; results : (string * status) list; aborted : bool }

let entry name doc run = { name; doc; run }

(* One lifecycle event per experiment attempt. [experiment_started] is
   emitted by the process actually doing the work — inside the worker
   when supervised — so the journal records the worker PID and the trace
   exporter can anchor the experiment's span tree on that track. *)
let note_started ~degraded name =
  if Jn.enabled () then
    Jn.emit ~level:Jn.Debug Jn.Experiment_started
      [ ("experiment", name); ("degraded", string_of_bool degraded) ]

let note_done name status =
  if Jn.enabled () then
    let fields =
      match status with
      | Passed { wall; degraded; attempts; scalars } ->
          [
            ("experiment", name);
            ("status", if degraded then "degraded" else "passed");
            ("wall_s", Printf.sprintf "%.3f" wall);
            ("attempts", string_of_int attempts);
            ("scalars", string_of_int (List.length scalars));
          ]
      | Failed { wall; attempts; error } ->
          [
            ("experiment", name);
            ("status", "failed");
            ("wall_s", Printf.sprintf "%.3f" wall);
            ("attempts", string_of_int attempts);
            ("error", E.code_name error.E.code);
          ]
      | Resumed en ->
          [
            ("experiment", name);
            ("status", "resumed");
            ("from", C.status_name en.C.status);
          ]
      | Skipped -> [ ("experiment", name); ("status", "skipped") ]
    in
    Jn.emit ~level:Jn.Debug Jn.Experiment_done fields

(* One trace per experiment: lifecycle events here and in the forked
   worker (which derives a child context across the fork) share the id. *)
let run_one config ppf e =
  Tc.with_ctx (Tc.mint_root ()) @@ fun () ->
  Format.fprintf ppf "@.=== %s: %s ===@." e.name e.doc;
  let outcome =
    match config.policy with
    | None ->
        note_started ~degraded:false e.name;
        let t0 = Unix.gettimeofday () in
        let value =
          E.protect ~stage:E.Experiment (fun () ->
              T.with_span e.name (fun () -> e.run ~degraded:false ppf))
        in
        {
          S.value;
          attempts = 1;
          degraded = false;
          wall_time = Unix.gettimeofday () -. t0;
        }
    | Some policy ->
        (* The worker inherits the parent's telemetry flag across the
           fork, profiles just its own entry, and the pool grafts that
           profile under a span named for the experiment. *)
        S.run ~policy ~telemetry_prefix:[ e.name ] ~name:e.name
          (fun ~degraded ->
            note_started ~degraded e.name;
            e.run ~degraded ppf)
  in
  let wall = outcome.S.wall_time and attempts = outcome.S.attempts in
  match outcome.S.value with
  | Ok scalars ->
      Passed { wall; scalars; degraded = outcome.S.degraded; attempts }
  | Result.Error err ->
      let error = E.with_context err [ ("experiment", e.name) ] in
      Failed { wall; attempts; error }

(* A passing manifest entry resumes only if it was produced by the same
   workload: same seed and same pattern count. *)
let resumable config manifest name =
  if not config.resume then None
  else
    match C.find manifest name with
    | Some en
      when (en.C.status = C.Passed || en.C.status = C.Degraded)
           && en.C.patterns = config.patterns
           && en.C.seed = config.seed ->
        Some en
    | _ -> None

let checkpoint config manifest name status =
  match config.manifest_path with
  | None -> ()
  | Some path ->
      let updated =
        match status with
        | Passed { wall; scalars; degraded; attempts } ->
            Some
              (C.entry ~experiment:name ~seed:config.seed
                 ~patterns:config.patterns ~wall_time:wall ~attempts
                 ~status:(if degraded then C.Degraded else C.Passed)
                 scalars)
        | Failed { wall; attempts; error } ->
            Some
              (C.entry ~experiment:name ~seed:config.seed
                 ~patterns:config.patterns ~wall_time:wall ~attempts
                 ~status:C.Failed ~error:(E.to_string error) [])
        | Skipped | Resumed _ -> None
      in
      (match updated with
      | None -> ()
      | Some en -> (
          manifest := C.add !manifest en;
          match C.save ~path !manifest with
          | Ok () ->
              if Jn.enabled () then
                Jn.emit ~level:Jn.Debug Jn.Checkpoint_written
                  [
                    ("path", path);
                    ("experiment", name);
                    ("entries", string_of_int (List.length !manifest.C.entries));
                  ]
          | Result.Error err ->
              Format.eprintf "harness: cannot checkpoint to %s: %a@." path
                E.pp err))

let initial_manifest config =
  match config.manifest_path with
  | Some path when config.resume && Sys.file_exists path -> (
      match C.load ~path with
      | Ok m -> m
      | Result.Error err ->
          (* A corrupt manifest must not poison the run: warn, start
             fresh, re-run everything. *)
          Format.eprintf
            "harness: ignoring unreadable manifest (%a); running from \
             scratch@."
            E.pp err;
          C.empty ~run_name:config.run_name)
  | _ -> C.empty ~run_name:config.run_name

let run_all ?(config = default_config) ppf entries =
  let manifest = ref (initial_manifest config) in
  let aborted = ref false in
  let results =
    List.map
      (fun e ->
        if !aborted then (e.name, Skipped)
        else
          match resumable config !manifest e.name with
          | Some en ->
              Format.fprintf ppf "@.=== %s: resumed from manifest (%s) ===@."
                e.name (C.status_name en.C.status);
              note_done e.name (Resumed en);
              (e.name, Resumed en)
          | None ->
              let status = run_one config ppf e in
              (match status with
              | Failed { error; _ } ->
                  Format.fprintf ppf "FAILED %s: %a@." e.name E.pp error;
                  if config.mode = Strict then aborted := true
              | _ -> ());
              note_done e.name status;
              checkpoint config manifest e.name status;
              (e.name, status))
      entries
  in
  { mode = config.mode; results; aborted = !aborted }

let failures s =
  List.filter_map
    (fun (name, st) ->
      match st with Failed { error; _ } -> Some (name, error) | _ -> None)
    s.results

let print_summary ppf s =
  Format.fprintf ppf "@.--- experiment summary ---@.";
  List.iter
    (fun (name, st) ->
      match st with
      | Passed { wall; degraded = false; _ } ->
          Format.fprintf ppf "ok      %-14s %6.1fs@." name wall
      | Passed { wall; degraded = true; attempts; _ } ->
          Format.fprintf ppf "ok      %-14s %6.1fs  (degraded, %d attempts)@."
            name wall attempts
      | Resumed en ->
          Format.fprintf ppf "resumed %-14s (manifest, %s)@." name
            (C.status_name en.C.status)
      | Failed { wall; error; _ } ->
          Format.fprintf ppf "FAILED  %-14s %6.1fs  %a@." name wall E.pp error
      | Skipped ->
          Format.fprintf ppf "skipped %-14s (strict mode abort)@." name)
    s.results;
  let count p = List.length (List.filter (fun (_, st) -> p st) s.results) in
  let failed = count (function Failed _ -> true | _ -> false) in
  let passed = count (function Passed _ -> true | _ -> false) in
  let resumed = count (function Resumed _ -> true | _ -> false) in
  let degraded =
    count (function Passed { degraded; _ } -> degraded | _ -> false)
  in
  let skipped = count (function Skipped -> true | _ -> false) in
  Format.fprintf ppf "%d passed, %d failed%s%s%s@." passed failed
    (if skipped > 0 then Printf.sprintf ", %d skipped" skipped else "")
    (if resumed > 0 then Printf.sprintf ", %d resumed" resumed else "")
    (if degraded > 0 then Printf.sprintf ", %d degraded" degraded else "")

let exit_status s =
  if failures s = [] then 0 else if s.aborted then 11 else 10
