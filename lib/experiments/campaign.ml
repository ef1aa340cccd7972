module E = Runtime.Cnt_error
module W = Runtime.Workqueue
module S = Runtime.Supervisor
module C = Runtime.Checkpoint
module T = Runtime.Telemetry
module Jn = Runtime.Journal
module M = Runtime.Metrics
module Est = Techmap.Estimate
module F = Techmap.Flow
module G = Cell.Genlib

type shard = {
  id : string;
  key : string;
  seed : int64;
  patterns : int;
  run : degraded:bool -> (string * float) list;
}

type inject = {
  inj_crash : string list;
  inj_flaky : string list;
  inj_hang : string list;
  inj_kill_after : int option;
}

let no_inject =
  { inj_crash = []; inj_flaky = []; inj_hang = []; inj_kill_after = None }

type config = {
  campaign : string;
  runs_dir : string;
  workers : int;
  shard_timeout_s : float;
  max_attempts : int;
  backoff_initial_s : float;
  backoff_max_s : float;
  resume : bool;
  strict : bool;
  inject : inject;
}

let default_config ~campaign =
  {
    campaign;
    runs_dir = "_runs";
    workers = 4;
    shard_timeout_s = 300.0;
    max_attempts = 3;
    backoff_initial_s = 0.5;
    backoff_max_s = 30.0;
    resume = false;
    strict = false;
    inject = no_inject;
  }

let run_file ?(runs_dir = "_runs") run name =
  Filename.concat (Filename.concat runs_dir run) name

let file cfg = run_file ~runs_dir:cfg.runs_dir cfg.campaign
let queue_path cfg = file cfg "queue.jsonl"
let manifest_path cfg = file cfg "manifest.json"

(* ------------------------------------------------------------------ *)
(* The Table 1 grid                                                    *)

let shard_scalars (r : Est.report) =
  [
    ("gates", float_of_int r.Est.gates);
    ("area", r.Est.area);
    ("delay_ps", r.Est.delay *. 1e12);
    ("dynamic_uW", r.Est.dynamic *. 1e6);
    ("static_uW", r.Est.static *. 1e6);
    ("total_uW", r.Est.total *. 1e6);
    ("edp_1e-24Js", r.Est.edp *. 1e24);
  ]

(* One Table 1 cell, inside the forked worker; the flow's typed error
   rides the supervisor's result pipe. *)
let execute { Circuits.Suite.name; generate; _ } lib ~patterns ~seed =
  let flow = E.get_exn (F.run ~patterns ~seed ~name [ Techmap.Matchlib.build lib ] generate) in
  shard_scalars (snd (List.hd flow.F.results))

let grid ~circuits ~libraries ~seeds ~patterns =
  List.concat_map
    (fun (entry : Circuits.Suite.entry) ->
      List.concat_map
        (fun (lib : G.t) ->
          List.map
            (fun seed ->
              {
                id =
                  Printf.sprintf "%s/%s/%Ld" entry.Circuits.Suite.name
                    lib.G.name seed;
                key = Printf.sprintf "seed %Ld, %d patterns" seed patterns;
                seed;
                patterns;
                run = (fun ~degraded:_ -> execute entry lib ~patterns ~seed);
              })
            seeds)
        libraries)
    circuits

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

type outcome =
  | Done of { wall_s : float; attempts : int; degraded : bool }
  | Resumed
  | Quarantined of E.t
  | Skipped

type summary = {
  results : (string * outcome) list;
  leases : int;
  reclaimed : int;
  wall_s : float;
}

let count p s = List.length (List.filter (fun (_, o) -> p o) s.results)
let is_done = function Done _ -> true | _ -> false
let is_resumed = function Resumed -> true | _ -> false

let quarantined s =
  List.filter_map
    (fun (id, o) -> match o with Quarantined _ -> Some id | _ -> None)
    s.results

let pp_summary ppf s =
  let q = quarantined s in
  Format.fprintf ppf
    "campaign: %d shards — %d completed, %d resumed, %d quarantined, %d lease(s), %d reclaimed, %.1f s"
    (List.length s.results) (count is_done s) (count is_resumed s)
    (List.length q) s.leases s.reclaimed s.wall_s;
  if q <> [] then Format.fprintf ppf "@.quarantined: %s" (String.concat " " q)

let print_results ppf s =
  Format.fprintf ppf "@.--- experiment summary ---@.";
  List.iter
    (fun (id, o) ->
      match o with
      | Done { wall_s; degraded = false; _ } ->
          Format.fprintf ppf "ok      %-14s %6.1fs@." id wall_s
      | Done { wall_s; attempts; _ } ->
          Format.fprintf ppf "ok      %-14s %6.1fs  (degraded, %d attempts)@."
            id wall_s attempts
      | Resumed -> Format.fprintf ppf "resumed %-14s (queue log)@." id
      | Quarantined e -> Format.fprintf ppf "FAILED  %-14s %a@." id E.pp e
      | Skipped -> Format.fprintf ppf "skipped %-14s (strict mode stop)@." id)
    s.results;
  let also n what = if n > 0 then Printf.sprintf ", %d %s" n what else "" in
  Format.fprintf ppf "%d passed, %d failed%s%s%s@." (count is_done s)
    (List.length (quarantined s))
    (also (count (( = ) Skipped) s) "skipped")
    (also (count is_resumed s) "resumed")
    (also
       (count (function Done { degraded; _ } -> degraded | _ -> false) s)
       "degraded")

let exit_status cfg s =
  if quarantined s = [] then 0 else if cfg.strict then 11 else 10

(* ------------------------------------------------------------------ *)
(* Selection and fault injection                                       *)

(* A name picks a shard by its id or by the id's first '/' component (a
   grid shard's circuit): the one rule of --only and the injections. *)
let named names id =
  let head = List.hd (String.split_on_char '/' id) in
  List.exists (fun n -> n = id || n = head) names

let select ~only shards =
  let unmatched n = not (List.exists (fun sh -> named [ n ] sh.id) shards) in
  match List.find_opt unmatched only with
  | Some n ->
      E.error
        ~context:[ ("only", n) ]
        E.Cli E.Validation_error "--only %S selects no shard" n
  | None when only = [] -> Ok shards
  | None -> Ok (List.filter (fun sh -> named only sh.id) shards)

let apply_injection inject id ~degraded =
  if
    named inject.inj_crash id
    || ((not degraded) && named inject.inj_flaky id)
  then Unix.kill (Unix.getpid ()) Sys.sigkill
  else if named inject.inj_hang id then
    while true do
      Unix.sleepf 3600.0
    done

(* ------------------------------------------------------------------ *)
(* Durable result fields: the [done] record carries the shard's resume
   key and every result the manifest entry is rendered from, scalars
   under an "s:" prefix.                                                *)

let scalar_prefix = "s:"

let done_fields sh ~degraded ~wall_s scalars =
  ("key", sh.key)
  :: ("degraded", string_of_bool degraded)
  :: ("wall_s", Printf.sprintf "%.6f" wall_s)
  :: List.map
       (fun (k, v) -> (scalar_prefix ^ k, Printf.sprintf "%.17g" v))
       scalars

let scalars_of_fields fields =
  List.filter_map
    (fun (k, v) ->
      let n = String.length scalar_prefix in
      if String.length k > n && String.sub k 0 n = scalar_prefix then
        Option.map
          (fun f -> (String.sub k n (String.length k - n), f))
          (float_of_string_opt v)
      else None)
    fields

(* A done record stands for the shard only when it ran the same
   workload: its key is the shard's. *)
let is_current wq sh =
  W.state wq sh.id = Some W.Done && List.assoc_opt "key" (W.fields wq sh.id) = Some sh.key

(* Only a current done record is rendered (a stale one was enqueued
   afresh), so the shard's own seed and pattern count label it. *)
let manifest_entry wq sh =
  let f = W.fields wq sh.id in
  let get k conv default =
    Option.value ~default (Option.bind (List.assoc_opt k f) conv)
  in
  C.entry ~experiment:sh.id ~seed:sh.seed ~patterns:sh.patterns
    ~wall_time:(get "wall_s" float_of_string_opt 0.0)
    ~attempts:(max 1 (W.attempts wq sh.id))
    ~status:
      (if get "degraded" bool_of_string_opt false then C.Degraded
       else C.Passed)
    (scalars_of_fields f)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let ( let* ) = Result.bind

let validate_run_name name =
  if name = "" || name = "." || name = ".." || String.contains name '/' then
    E.error E.Experiment E.Validation_error "invalid run name %S" name
  else Ok ()

let validate cfg shards =
  let bad fmt = E.error E.Experiment E.Validation_error fmt in
  let* () = validate_run_name cfg.campaign in
  if cfg.workers < 1 then bad "workers must be >= 1 (got %d)" cfg.workers
  else if cfg.max_attempts < 1 then
    bad "max-attempts must be >= 1 (got %d)" cfg.max_attempts
  else if shards = [] then bad "no shards selected"
  else if (not cfg.resume) && Sys.file_exists (queue_path cfg) then
    E.error
      ~context:[ ("path", queue_path cfg) ]
      E.Experiment E.Validation_error
      "run %S already has a queue log; pass --resume to continue it or pick a new --run name"
      cfg.campaign
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)

type flight = {
  fl_shard : shard;
  fl_attempt : int;  (** this invocation's attempt at the shard, from 1 *)
  fl_job : (string * float) list S.job;
  fl_started : float;
}

(* The manifest, profile and metrics are views of the queue log: a failed
   write is reported and the run goes on. *)
let write_failed what e =
  Format.eprintf "campaign: %s write failed: %a@." what E.pp e

let run cfg shards =
  let* () = validate cfg shards in
  let t0 = Unix.gettimeofday () in
  let* wq, torn = W.open_ ~path:(queue_path cfg) in
  if torn > 0 then
    Format.eprintf "campaign: queue log: skipped %d torn/corrupt line(s)@." torn;
  (* Leases left by a dead (or wedged-past-expiry) coordinator. *)
  let stale = W.stale_leases wq ~now:t0 in
  List.iter
    (fun id ->
      if Jn.enabled () then
        Jn.emit ~level:Jn.Warn Jn.Lease_reclaimed
          [ ("shard", id); ("attempts", string_of_int (W.attempts wq id)) ];
      W.mark_failed wq id ~fields:[ ("reason", "lease-reclaimed") ])
    stale;
  (* Every shard not done for this workload is enqueued afresh, which
     restarts its attempt count for this invocation. *)
  let outcomes = Hashtbl.create 64 in
  List.iter
    (fun sh ->
      if is_current wq sh then Hashtbl.replace outcomes sh.id Resumed
      else ignore (W.enqueue wq sh.id))
    shards;
  let resumed = Hashtbl.length outcomes in
  let by_id = Hashtbl.create 64 in
  List.iter (fun sh -> Hashtbl.replace by_id sh.id sh) shards;
  (* The manifest is a view of the queue log, the one durable record:
     every write renders it whole from the [done] records, in shard
     order, so an entry lost to a crash between the two writes, or one
     the log does not hold, cannot outlive the next write. *)
  let save_manifest () =
    let entries =
      List.filter_map
        (fun sh ->
          if W.state wq sh.id = Some W.Done then Some (manifest_entry wq sh)
          else None)
        shards
    in
    match
      C.save ~path:(manifest_path cfg)
        { C.run_name = cfg.campaign; created = t0; entries }
    with
    | Ok () ->
        if Jn.enabled () then
          Jn.emit ~level:Jn.Debug Jn.Checkpoint_written
            [ ("path", manifest_path cfg) ]
    | Error e -> write_failed "manifest" e
  in
  let save_profile () =
    if T.enabled () then
      match T.save ~path:(file cfg "profile.json") (T.snapshot ()) with
      | Ok () -> ()
      | Error e -> write_failed "profile" e
  in
  save_manifest ();
  let total_shards = List.length shards in
  if Jn.enabled () then
    Jn.emit Jn.Run_started
      [
        ("run", cfg.campaign);
        ("mode", if cfg.strict then "strict" else "keep-going");
        ("shards", string_of_int total_shards);
        ("resumed", string_of_int resumed);
        ("workers", string_of_int cfg.workers);
      ];
  let eligible : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let flights = ref [] in
  let completed = ref 0 in
  let leases = ref 0 in
  let stopped = ref false in
  let in_run id = Hashtbl.mem by_id id in
  let pending () = List.filter in_run (W.ready wq) in
  (* Live status for pollers ([cntpower top <run>]): an atomic snapshot
     after every state change, cheap enough to write eagerly. The
     coordinator's numbers are gauges: the per-state shard counts go down
     as well as up (a failed shard leased again), and none of them is a
     telemetry counter. *)
  let save_metrics () =
    let snap =
      M.make ~source:"campaign" ~started:t0
        ~gauges:
          (List.map
             (fun (k, n) -> (k, float_of_int n))
             [
               ("shards_total", total_shards);
               ("workers_busy", List.length !flights);
               ("workers_max", cfg.workers);
               ("queue_depth", List.length (pending ()));
               ("campaign.completed", !completed);
               ("campaign.done", W.count wq W.Done);
               ("campaign.failed", W.count wq W.Failed);
               ("campaign.quarantined", W.count wq W.Quarantined);
               ("campaign.leases", !leases);
               ("campaign.reclaimed", List.length stale);
               ("campaign.resumed", resumed);
             ])
        ()
    in
    match M.save ~path:(file cfg "metrics.json") snap with
    | Ok () -> ()
    | Error e -> write_failed "metrics" e
  in
  save_metrics ();
  let backoff_delay attempt =
    Float.min cfg.backoff_max_s
      (cfg.backoff_initial_s *. (2.0 ** float_of_int (attempt - 1)))
  in
  let handle_failure fl err =
    let id = fl.fl_shard.id in
    let err = E.with_context err [ ("shard", id) ] in
    let fields =
      [ ("code", E.code_name err.E.code); ("error", E.to_string err) ]
    in
    if S.retryable err && fl.fl_attempt < cfg.max_attempts then begin
      W.mark_failed wq id ~fields;
      Hashtbl.replace eligible id
        (Unix.gettimeofday () +. backoff_delay fl.fl_attempt)
    end
    else begin
      W.mark_quarantined wq id ~fields;
      Hashtbl.replace outcomes id (Quarantined err);
      if cfg.strict then stopped := true
    end;
    save_metrics ()
  in
  let handle_done fl scalars =
    let wall_s = Unix.gettimeofday () -. fl.fl_started in
    let degraded = fl.fl_attempt > 1 in
    W.mark_done wq fl.fl_shard.id
      ~fields:(done_fields fl.fl_shard ~degraded ~wall_s scalars);
    Hashtbl.replace outcomes fl.fl_shard.id
      (Done { wall_s; attempts = fl.fl_attempt; degraded });
    incr completed;
    (* Fault injection: die at the worst moment — result durable in the
       queue log, manifest not yet rewritten. *)
    (match cfg.inject.inj_kill_after with
    | Some n when !completed >= n -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    save_manifest ();
    save_profile ();
    save_metrics ()
  in
  let dispatch () =
    let now = Unix.gettimeofday () in
    let capacity = cfg.workers - List.length !flights in
    if capacity > 0 && not !stopped then
      pending ()
      |> List.filter (fun id ->
             match Hashtbl.find_opt eligible id with
             | Some at -> at <= now
             | None -> true)
      |> List.iteri (fun i id ->
             if i < capacity then begin
               let sh = Hashtbl.find by_id id in
               let ttl_s =
                 (if cfg.shard_timeout_s > 0.0 then cfg.shard_timeout_s
                  else 3600.0)
                 +. 60.0
               in
               let attempt = W.lease wq id ~ttl_s in
               let degraded = attempt > 1 in
               incr leases;
               let job =
                 S.spawn ~telemetry_prefix:[ id ]
                   ~timeout_s:cfg.shard_timeout_s ~name:id (fun () ->
                     apply_injection cfg.inject id ~degraded;
                     sh.run ~degraded)
               in
               flights :=
                 {
                   fl_shard = sh;
                   fl_attempt = attempt;
                   fl_job = job;
                   fl_started = Unix.gettimeofday ();
                 }
                 :: !flights
             end)
  in
  while ((not !stopped) && pending () <> []) || !flights <> [] do
    dispatch ();
    (* Wake for a finished or overdue worker, or for the next shard
       leaving its backoff. *)
    let now = Unix.gettimeofday () in
    let until =
      List.fold_left
        (fun acc id ->
          match Hashtbl.find_opt eligible id with
          | Some at when at > now -> Float.min acc at
          | _ -> acc)
        infinity (pending ())
    in
    let _, finished =
      S.wait ~until (List.map (fun fl -> fl.fl_job) !flights)
    in
    List.iter
      (fun (job, result) ->
        let fl = List.find (fun fl -> fl.fl_job == job) !flights in
        flights := List.filter (fun f -> f != fl) !flights;
        match result with
        | Ok scalars -> handle_done fl scalars
        | Error e -> handle_failure fl e)
      finished
  done;
  let results =
    List.map
      (fun sh ->
        (sh.id, Option.value ~default:Skipped (Hashtbl.find_opt outcomes sh.id)))
      shards
  in
  save_profile ();
  save_metrics ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let summary =
    { results; leases = !leases; reclaimed = List.length stale; wall_s }
  in
  if Jn.enabled () then
    Jn.emit Jn.Run_finished
      [
        ("run", cfg.campaign);
        ("completed", string_of_int !completed);
        ("quarantined", string_of_int (List.length (quarantined summary)));
        ("wall_s", Printf.sprintf "%.3f" wall_s);
      ];
  W.close wq;
  Ok summary
