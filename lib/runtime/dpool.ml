let max_domains = 64

let recommended () = Domain.recommended_domain_count ()

let configured : int option ref = ref None

let set_default d =
  match d with
  | None -> configured := None
  | Some n ->
      if n < 1 || n > max_domains then
        invalid_arg "Dpool.set_default: domains out of range"
      else configured := Some n

let env_var = "CNTPOWER_DOMAINS"

let env_domains_checked () =
  match Sys.getenv_opt env_var with
  | None -> Ok None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= max_domains -> Ok (Some n)
      | Some n ->
          Error
            (Printf.sprintf "%s=%d is outside 1..%d" env_var n max_domains)
      | None -> Error (Printf.sprintf "%s=%S is not an integer" env_var s))

let env_warned = ref false

let env_domains () =
  match env_domains_checked () with
  | Ok v -> v
  | Error msg ->
      (* Library fallback path (CLI startup validates and errors instead):
         say so once rather than silently pretending the variable is
         unset. *)
      if not !env_warned then begin
        env_warned := true;
        Printf.eprintf "cntpower: warning: ignoring %s\n%!" msg
      end;
      None

let default_domains () =
  match !configured with
  | Some n -> n
  | None -> (
      match env_domains () with
      | Some n -> n
      | None ->
          let n = recommended () in
          if n < 1 then 1 else if n > max_domains then max_domains else n)

type stats = { domains_used : int; chunks : int; units : int array }

let run ?domains ~min_units_per_domain ~units f =
  if units < 0 then invalid_arg "Dpool.run: negative units";
  let requested =
    match domains with
    | Some d -> if d < 1 then 1 else if d > max_domains then max_domains else d
    | None -> default_domains ()
  in
  let mupd = if min_units_per_domain < 1 then 1 else min_units_per_domain in
  let by_work = units / mupd in
  let d = min requested (max 1 by_work) in
  if d <= 1 || units = 0 then begin
    if units > 0 then f ~worker:0 ~lo:0 ~len:units;
    { domains_used = 1; chunks = (if units > 0 then 1 else 0); units = [| units |] }
  end
  else begin
    (* [min_units_per_domain] decides how many domains run, not how small
       a chunk may be: about eight chunks per domain smooth out the load
       imbalance between slices, so the domains reach the join within
       about a chunk of each other, without contending on the cursor. *)
    let chunk = max 1 (units / (d * 8)) in
    let nchunks = (units + chunk - 1) / chunk in
    let cursor = Atomic.make 0 in
    let done_units = Array.make d 0 in
    let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let worker_body worker =
      let rec loop () =
        let c = Atomic.fetch_and_add cursor 1 in
        if c < nchunks && Atomic.get failure = None then begin
          let lo = c * chunk in
          let len = min chunk (units - lo) in
          (try f ~worker ~lo ~len
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          done_units.(worker) <- done_units.(worker) + len;
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (d - 1) (fun i ->
          Domain.spawn (fun () ->
              worker_body (i + 1);
              (* Snapshot inside the worker: its DLS registry is only
                 reachable from here. *)
              Telemetry.snapshot ()))
    in
    worker_body 0;
    let profiles = Array.map Domain.join spawned in
    Array.iter (fun p -> Telemetry.merge p) profiles;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    { domains_used = d; chunks = nchunks; units = done_units }
  end
