module E = Runtime.Cnt_error
module W = Runtime.Workqueue
module S = Runtime.Supervisor
module C = Runtime.Checkpoint
module T = Runtime.Telemetry
module Jn = Runtime.Journal
module Tc = Runtime.Tracectx
module M = Runtime.Metrics
module Est = Techmap.Estimate
module G = Cell.Genlib

type shard = {
  sh_id : string;
  sh_circuit : string;
  sh_library : string;
  sh_seed : int64;
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
  circuits : Circuits.Suite.entry list;
  libraries : G.t list;
  seeds : int64 list;
  patterns : int;
  workers : int;
  shard_timeout_s : float;
  max_attempts : int;
  backoff_initial_s : float;
  backoff_max_s : float;
  resume : bool;
  inject : inject;
}

let default_config ~campaign =
  {
    campaign;
    runs_dir = "_runs";
    circuits = Circuits.Suite.all;
    libraries = G.libraries ();
    seeds = [ 42L ];
    patterns = Est.default_patterns;
    workers = 4;
    shard_timeout_s = 300.0;
    max_attempts = 3;
    backoff_initial_s = 0.5;
    backoff_max_s = 30.0;
    resume = false;
    inject = no_inject;
  }

let dir cfg = Filename.concat cfg.runs_dir cfg.campaign
let queue_path cfg = Filename.concat (dir cfg) "queue.jsonl"
let manifest_path cfg = Filename.concat (dir cfg) "manifest.json"
let profile_path cfg = Filename.concat (dir cfg) "profile.json"
let events_path cfg = Filename.concat (dir cfg) "events.jsonl"
let metrics_path cfg = Filename.concat (dir cfg) "metrics.json"

let shard_id circuit library seed = Printf.sprintf "%s/%s/%Ld" circuit library seed

let enumerate cfg =
  List.concat_map
    (fun (entry : Circuits.Suite.entry) ->
      List.concat_map
        (fun (lib : G.t) ->
          List.map
            (fun seed ->
              {
                sh_id = shard_id entry.Circuits.Suite.name lib.G.name seed;
                sh_circuit = entry.Circuits.Suite.name;
                sh_library = lib.G.name;
                sh_seed = seed;
              })
            cfg.seeds)
        cfg.libraries)
    cfg.circuits

type summary = {
  total : int;
  completed : int;
  resumed : int;
  quarantined : string list;
  attempts : int;
  reclaimed : int;
  wall_s : float;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "campaign: %d shards — %d completed, %d resumed, %d quarantined, %d lease(s), %d reclaimed, %.1f s"
    s.total s.completed s.resumed
    (List.length s.quarantined)
    s.attempts s.reclaimed s.wall_s;
  if s.quarantined <> [] then
    Format.fprintf ppf "@.quarantined: %s" (String.concat " " s.quarantined)

(* ------------------------------------------------------------------ *)
(* Shard execution (worker side)                                       *)

let inject_matches lists shard =
  List.exists (fun p -> p = shard.sh_id || p = shard.sh_circuit) lists

let apply_injection inject shard ~attempt =
  if
    inject_matches inject.inj_crash shard
    || (attempt = 1 && inject_matches inject.inj_flaky shard)
  then Unix.kill (Unix.getpid ()) Sys.sigkill
  else if inject_matches inject.inj_hang shard then
    while true do
      Unix.sleepf 3600.0
    done

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

(* Runs inside the forked worker; exceptions become typed errors on the
   supervisor's result pipe. *)
let execute cfg shard ~attempt =
  apply_injection cfg.inject shard ~attempt;
  let entry =
    List.find
      (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name = shard.sh_circuit)
      cfg.circuits
  in
  let lib = List.find (fun (l : G.t) -> l.G.name = shard.sh_library) cfg.libraries in
  let ctx = [ ("shard", shard.sh_id) ] in
  let nl = entry.Circuits.Suite.generate () in
  let (_ : Nets.Check.report) = Nets.Check.check_exn nl in
  let aig = Aigs.Aig.of_netlist nl in
  let opt = Aigs.Opt.resyn2rs aig in
  let ml = Techmap.Matchlib.build lib in
  match Techmap.Mapper.map_checked ml opt with
  | Error e -> E.raise_error (E.with_context e ctx)
  | Ok mapped ->
      shard_scalars (Est.run ~patterns:cfg.patterns ~seed:shard.sh_seed mapped)

(* ------------------------------------------------------------------ *)
(* Durable result fields: everything the manifest entry is rendered
   from rides the [done] record, scalars under an "s:" prefix. *)

let scalar_prefix = "s:"

let done_fields ~wall_s scalars =
  ("wall_s", Printf.sprintf "%.6f" wall_s)
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

let wall_of_fields fields =
  match List.assoc_opt "wall_s" fields with
  | Some v -> Option.value ~default:0.0 (float_of_string_opt v)
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let ( let* ) = Result.bind

let validate cfg =
  let bad fmt = E.error E.Experiment E.Validation_error fmt in
  if
    cfg.campaign = "" || cfg.campaign = "." || cfg.campaign = ".."
    || String.contains cfg.campaign '/'
  then bad "invalid campaign name %S" cfg.campaign
  else if cfg.workers < 1 then bad "workers must be >= 1 (got %d)" cfg.workers
  else if cfg.max_attempts < 1 then
    bad "max-attempts must be >= 1 (got %d)" cfg.max_attempts
  else if cfg.patterns < 1 then bad "patterns must be >= 1 (got %d)" cfg.patterns
  else if cfg.circuits = [] then bad "no circuits selected"
  else if cfg.libraries = [] then bad "no libraries selected"
  else if cfg.seeds = [] then bad "no seeds selected"
  else if (not cfg.resume) && Sys.file_exists (queue_path cfg) then
    E.error
      ~context:[ ("path", queue_path cfg) ]
      E.Experiment E.Validation_error
      "campaign %S already has a queue log; pass --resume to continue it or pick a new --run name"
      cfg.campaign
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)

type flight = {
  fl_shard : shard;
  fl_attempt : int;
  fl_job : (string * float) list S.job;
  fl_started : float;
  fl_ctx : Tc.t;  (** shard trace context; stamps every outcome event *)
}

let run cfg =
  let* () = validate cfg in
  let t0 = Unix.gettimeofday () in
  let* wq, torn = W.open_ ~path:(queue_path cfg) in
  if torn > 0 then
    Format.eprintf "campaign: queue log: skipped %d torn/corrupt line(s)@." torn;
  let shards = enumerate cfg in
  let by_id = Hashtbl.create 64 in
  List.iter (fun sh -> Hashtbl.replace by_id sh.sh_id sh) shards;
  List.iter (fun sh -> ignore (W.enqueue wq sh.sh_id)) shards;
  (* Reclaim leases left by a dead (or wedged-past-expiry) coordinator:
     the attempt was consumed, so a shard already at its budget goes
     straight to quarantine. *)
  let reclaimed = ref 0 in
  List.iter
    (fun id ->
      incr reclaimed;
      let att = W.attempts wq id in
      if Jn.enabled () then
        Jn.emit ~level:Jn.Warn Jn.Lease_reclaimed
          [ ("shard", id); ("attempts", string_of_int att) ];
      if att >= cfg.max_attempts then
        W.mark_quarantined wq id
          ~fields:[ ("reason", "lease-reclaimed; attempts exhausted") ]
      else W.mark_failed wq id ~fields:[ ("reason", "lease-reclaimed") ])
    (W.stale_leases wq ~now:(Unix.gettimeofday ()));
  let is_done sh = W.state wq sh.sh_id = Some W.Done in
  let resumed = List.length (List.filter is_done shards) in
  (* The manifest is a view of the queue log, the one durable record:
     every write renders it whole from the [done] records, in grid
     order, so an entry lost to a crash between the two writes, or one
     the log does not hold, cannot outlive the next write. *)
  let save_manifest () =
    let entry sh =
      let fields = W.fields wq sh.sh_id in
      C.entry ~experiment:sh.sh_id ~seed:sh.sh_seed ~patterns:cfg.patterns
        ~wall_time:(wall_of_fields fields)
        ~attempts:(max 1 (W.attempts wq sh.sh_id))
        ~status:C.Passed (scalars_of_fields fields)
    in
    let manifest =
      {
        C.run_name = cfg.campaign;
        created = t0;
        entries =
          List.filter_map
            (fun sh -> if is_done sh then Some (entry sh) else None)
            shards;
      }
    in
    match C.save ~path:(manifest_path cfg) manifest with
    | Ok () ->
        if Jn.enabled () then
          Jn.emit ~level:Jn.Debug Jn.Checkpoint_written
            [ ("path", manifest_path cfg) ]
    | Error e -> Format.eprintf "campaign: manifest write failed: %a@." E.pp e
  in
  let save_profile () =
    if T.enabled () then
      match T.save ~path:(profile_path cfg) (T.snapshot ()) with
      | Ok () -> ()
      | Error e -> Format.eprintf "campaign: profile write failed: %a@." E.pp e
  in
  save_manifest ();
  let total_shards = List.length shards in
  if Jn.enabled () then
    Jn.emit Jn.Run_started
      [
        ("run", cfg.campaign);
        ("mode", "campaign");
        ("shards", string_of_int (List.length shards));
        ("resumed", string_of_int resumed);
        ("workers", string_of_int cfg.workers);
      ];
  let eligible : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let flights = ref [] in
  let completed = ref 0 in
  let leases = ref 0 in
  let in_grid id = Hashtbl.mem by_id id in
  let pending () = List.filter in_grid (W.ready wq) in
  (* Live status for pollers ([cntpower top <campaign>]): an atomic
     snapshot after every state change, cheap enough to write eagerly. *)
  let save_metrics () =
    let snap =
      M.make ~source:"campaign" ~started:t0
        ~gauges:
          [
            ("shards_total", float_of_int total_shards);
            ("workers_busy", float_of_int (List.length !flights));
            ("workers_max", float_of_int cfg.workers);
            ("queue_depth", float_of_int (List.length (pending ())));
          ]
        ~counters:
          [
            ("campaign.completed", !completed);
            ("campaign.done", W.count wq W.Done);
            ("campaign.failed", W.count wq W.Failed);
            ("campaign.quarantined", W.count wq W.Quarantined);
            ("campaign.leases", !leases);
            ("campaign.reclaimed", !reclaimed);
            ("campaign.resumed", resumed);
          ]
        ()
    in
    match M.save ~path:(metrics_path cfg) snap with
    | Ok () -> ()
    | Error e -> Format.eprintf "campaign: metrics write failed: %a@." E.pp e
  in
  save_metrics ();
  let backoff_delay attempt =
    Float.min cfg.backoff_max_s
      (cfg.backoff_initial_s *. (2.0 ** float_of_int (attempt - 1)))
  in
  let handle_failure fl err =
    Tc.with_ctx fl.fl_ctx @@ fun () ->
    let now = Unix.gettimeofday () in
    let id = fl.fl_shard.sh_id in
    let fields =
      [ ("code", E.code_name err.E.code); ("error", E.to_string err) ]
    in
    if fl.fl_attempt >= cfg.max_attempts then
      W.mark_quarantined wq id ~fields
    else begin
      W.mark_failed wq id ~fields;
      Hashtbl.replace eligible id (now +. backoff_delay fl.fl_attempt)
    end;
    save_metrics ()
  in
  let handle_done fl scalars =
    Tc.with_ctx fl.fl_ctx @@ fun () ->
    let wall_s = Unix.gettimeofday () -. fl.fl_started in
    W.mark_done wq fl.fl_shard.sh_id ~fields:(done_fields ~wall_s scalars);
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
    if capacity > 0 then
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
               (* One trace per shard attempt set: the lease record, the
                  worker-spawned event, the worker's own events and its
                  telemetry subtree all share the id, so [cntpower trace
                  --request <id>] slices the shard end-to-end. *)
               let ctx = Tc.mint_root () in
               Tc.with_ctx ctx @@ fun () ->
               let attempt = W.lease wq id ~ttl_s in
               incr leases;
               let job =
                 S.spawn
                   ~telemetry_prefix:
                     [ "campaign"; "shard"; Tc.span_label ctx ]
                   ~timeout_s:cfg.shard_timeout_s ~name:id
                   (fun () -> execute cfg sh ~attempt)
               in
               flights :=
                 {
                   fl_shard = sh;
                   fl_attempt = attempt;
                   fl_job = job;
                   fl_started = Unix.gettimeofday ();
                   fl_ctx = ctx;
                 }
                 :: !flights
             end)
  in
  while pending () <> [] || !flights <> [] do
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
  let quarantined =
    List.filter (fun id -> W.state wq id = Some W.Quarantined)
      (List.map (fun sh -> sh.sh_id) shards)
  in
  save_profile ();
  save_metrics ();
  let wall_s = Unix.gettimeofday () -. t0 in
  if Jn.enabled () then
    Jn.emit Jn.Run_finished
      [
        ("run", cfg.campaign);
        ("mode", "campaign");
        ("completed", string_of_int !completed);
        ("quarantined", string_of_int (List.length quarantined));
        ("wall_s", Printf.sprintf "%.3f" wall_s);
      ];
  W.close wq;
  Ok
    {
      total = List.length shards;
      completed = !completed;
      resumed;
      quarantined;
      attempts = !leases;
      reclaimed = !reclaimed;
      wall_s;
    }
