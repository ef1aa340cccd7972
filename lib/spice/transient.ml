type stimulus = float -> float

let step ?(t0 = 0.0) ?(rise = 1.0e-12) ~low ~high () t =
  if t <= t0 then low
  else if t >= t0 +. rise then high
  else low +. ((high -. low) *. (t -. t0) /. rise)

type waveform = { times : float array; voltages : float array }

type diagnostics = {
  settle_steps : int;
  steps : int;
  retries : int;
  min_dt : float;
  residual : float;
  converged : bool;
}

let stage = Runtime.Cnt_error.Spice

(* Below this per-step voltage change the settle relaxation is considered
   quasi-static (relative to dv_max); below this absolute node current the
   state is already at equilibrium even if dt clamping keeps the dv
   criterion from triggering. *)
let settle_current_tol = 1.0e-16

(* One integration attempt at a fixed accuracy setting. [damping] scales the
   settle-phase updates only: it changes how the relaxation walks to the
   fixed point, not the fixed point itself, so a damped retry converges to
   the same initial condition. *)
let attempt circuit ~cap ~driven ~tstop ~dv_max ~samples ~damping watch =
  let n = Circuit.num_nodes circuit in
  let v = Array.make n 0.0 in
  for node = 0 to n - 1 do
    if Circuit.is_source circuit node then v.(node) <- Circuit.source_value circuit node;
    match driven.(node) with Some s -> v.(node) <- s 0.0 | None -> ()
  done;
  let free node =
    (not (Circuit.is_source circuit node)) && driven.(node) = None && cap.(node) > 0.0
  in
  (* The guarded dV/dt of a free node; caps were validated > 0 for free
     nodes, so the division cannot produce infinities from a zero cap. *)
  let rate currents node = currents.(node) /. cap.(node) in
  let adaptive_dt currents bound =
    let dt = ref bound in
    for node = 1 to n - 1 do
      if free node then begin
        let r = abs_float (rate currents node) in
        if r > 0.0 then dt := min !dt (dv_max /. r)
      end
    done;
    max !dt 1.0e-18
  in
  (* Settle free nodes to a quasi-static start: integrate with the t = 0
     stimulus frozen until the state stops moving or the currents vanish. *)
  let settle_budget = 200_000 in
  let settle_steps = ref 0 in
  let residual = ref infinity in
  let moving = ref true in
  let failure = ref None in
  while !moving && !failure = None && !settle_steps < settle_budget do
    incr settle_steps;
    let currents = Circuit.node_currents circuit v in
    let dt = adaptive_dt currents (tstop /. 10.0) in
    let biggest = ref 0.0 in
    let imax = ref 0.0 in
    for node = 1 to n - 1 do
      if free node then begin
        let dv = -.(rate currents node) *. dt *. damping in
        v.(node) <- v.(node) +. dv;
        if abs_float dv > !biggest then biggest := abs_float dv;
        if abs_float currents.(node) > !imax then imax := abs_float currents.(node)
      end
    done;
    residual := !biggest;
    if not (Float.is_finite !biggest) then
      failure :=
        Some
          (Runtime.Cnt_error.makef
             ~context:[ ("settle_step", string_of_int !settle_steps) ]
             stage Runtime.Cnt_error.Non_finite
             "Transient.simulate: non-finite voltage during DC settle")
    else if !biggest < dv_max /. 100.0 || !imax < settle_current_tol then
      moving := false
  done;
  match !failure with
  | Some e -> Result.Error e
  | None when !moving ->
      Runtime.Cnt_error.error
        ~context:
          [
            ("settle_steps", string_of_int !settle_steps);
            ("residual", Printf.sprintf "%.3g" !residual);
            ("dv_max", Printf.sprintf "%.3g" dv_max);
          ]
        stage Runtime.Cnt_error.Convergence_failure
        "Transient.simulate: DC settle exhausted its budget without reaching \
         a quasi-static state"
  | None -> (
      let sample_dt = tstop /. float_of_int samples in
      let recorded = List.map (fun node -> (node, ref [ (0.0, v.(node)) ])) watch in
      let t = ref 0.0 in
      let next_sample = ref sample_dt in
      let steps = ref 0 in
      let min_dt = ref infinity in
      let max_steps = 5_000_000 in
      while !t < tstop && !failure = None && !steps < max_steps do
        incr steps;
        (* Adaptive step: bound every free node's voltage change. *)
        let currents = Circuit.node_currents circuit v in
        let dt = adaptive_dt currents (tstop /. 1000.0) in
        let dt = min dt (tstop -. !t) in
        if dt < !min_dt then min_dt := dt;
        let finite = ref true in
        for node = 1 to n - 1 do
          if Circuit.is_source circuit node then ()
          else
            match driven.(node) with
            | Some s ->
                v.(node) <- s (!t +. dt);
                if not (Float.is_finite v.(node)) then finite := false
            | None ->
                if cap.(node) > 0.0 then v.(node) <- v.(node) -. (rate currents node *. dt);
                if not (Float.is_finite v.(node)) then finite := false
        done;
        if not !finite then
          failure :=
            Some
              (Runtime.Cnt_error.makef
                 ~context:
                   [ ("t", Printf.sprintf "%.3g" !t); ("step", string_of_int !steps) ]
                 stage Runtime.Cnt_error.Non_finite
                 "Transient.simulate: non-finite voltage during integration");
        t := !t +. dt;
        if !t >= !next_sample then begin
          List.iter (fun (node, acc) -> acc := (!t, v.(node)) :: !acc) recorded;
          next_sample := !next_sample +. sample_dt
        end
      done;
      match !failure with
      | Some e -> Result.Error e
      | None when !t < tstop ->
          (* Silent-partial-waveform hazard of the unhardened solver: the
             step budget ran out before tstop. Surface it as a typed
             failure instead of returning a truncated result. *)
          Runtime.Cnt_error.error
            ~context:
              [
                ("steps", string_of_int !steps);
                ("t", Printf.sprintf "%.3g" !t);
                ("tstop", Printf.sprintf "%.3g" tstop);
                ("min_dt", Printf.sprintf "%.3g" !min_dt);
              ]
            stage Runtime.Cnt_error.Convergence_failure
            "Transient.simulate: step budget exhausted before tstop"
      | None ->
          let waves =
            List.map
              (fun (node, acc) ->
                let pts = List.rev !acc in
                ( node,
                  {
                    times = Array.of_list (List.map fst pts);
                    voltages = Array.of_list (List.map snd pts);
                  } ))
              recorded
          in
          let diag =
            {
              settle_steps = !settle_steps;
              steps = !steps;
              retries = 0;
              min_dt = (if !min_dt = infinity then 0.0 else !min_dt);
              residual = !residual;
              converged = true;
            }
          in
          Ok (waves, diag))

let validate_inputs circuit ~caps ~drives ~tstop ~dv_max ~samples watch =
  let open Runtime.Validate in
  let* () = Circuit.validate circuit in
  let n = Circuit.num_nodes circuit in
  let in_range what node =
    require ~stage
      ~context:[ (what, string_of_int node) ]
      (node >= 0 && node < n)
      (Printf.sprintf "%s node id out of range" what)
  in
  let* _ = positive ~stage ~what:"tstop" tstop in
  let* _ = positive ~stage ~what:"dv_max" dv_max in
  let* () = require ~stage (samples > 0) "samples must be > 0" in
  let* () =
    all
      (List.map
         (fun (node, c) ->
           let* () = in_range "cap" node in
           Result.map (fun _ -> ()) (non_negative ~stage ~what:"capacitance" c))
         caps)
  in
  let* () =
    all
      (List.map
         (fun (node, s) ->
           let* () = in_range "drive" node in
           let v0 = s 0.0 in
           require ~stage ~code:Runtime.Cnt_error.Non_finite
             ~context:[ ("node", string_of_int node); ("value", Printf.sprintf "%h" v0) ]
             (Float.is_finite v0) "stimulus value at t=0 must be finite")
         drives)
  in
  all (List.map (in_range "watch") watch)

let simulate_checked circuit ~caps ~drives ~tstop ?(dv_max = 2.0e-3) ?(samples = 400)
    ?(max_retries = 2) watch =
  match validate_inputs circuit ~caps ~drives ~tstop ~dv_max ~samples watch with
  | Result.Error _ as e -> e
  | Ok () -> (
      let n = Circuit.num_nodes circuit in
      let cap = Array.make n 0.0 in
      List.iter (fun (node, c) -> cap.(node) <- c) caps;
      let driven = Array.make n None in
      List.iter (fun (node, s) -> driven.(node) <- Some s) drives;
      (* Zero-capacitance free nodes have no state equation: their voltage
         would silently freeze. Reject them up front. *)
      let zero_cap = ref [] in
      for node = n - 1 downto 1 do
        if
          (not (Circuit.is_source circuit node))
          && driven.(node) = None
          && cap.(node) <= 0.0
        then zero_cap := node :: !zero_cap
      done;
      match !zero_cap with
      | _ :: _ ->
          Runtime.Cnt_error.error
            ~context:
              [ ("nodes", String.concat "," (List.map string_of_int !zero_cap)) ]
            stage Runtime.Cnt_error.Validation_error
            "Transient.simulate: free node(s) without capacitance"
      | [] ->
          (* Bounded retries: each one halves the step-accuracy bound and
             damps the settle relaxation. *)
          let module T = Runtime.Telemetry in
          let rec go retry dv_max damping last_error =
            if retry > max_retries then begin
              T.count "spice.transient.failures" 1;
              Result.Error
                (Runtime.Cnt_error.with_context last_error
                   [ ("retries", string_of_int max_retries) ])
            end
            else
              match attempt circuit ~cap ~driven ~tstop ~dv_max ~samples ~damping watch with
              | Ok (waves, diag) ->
                  T.count "spice.transient.solves" 1;
                  T.count "spice.transient.settle_steps" diag.settle_steps;
                  T.count "spice.transient.steps" diag.steps;
                  T.count "spice.transient.damped_retries" retry;
                  T.observe "spice.transient.settle_residual_v" diag.residual;
                  Ok (waves, { diag with retries = retry })
              | Result.Error e ->
                  T.count "spice.transient.damped_attempts_failed" 1;
                  if Runtime.Journal.enabled () then
                    Runtime.Journal.emit ~level:Runtime.Journal.Debug
                      Runtime.Journal.Solver_damped_retry
                      [
                        ("retry", string_of_int (retry + 1));
                        ("dv_max", Printf.sprintf "%.3g" (dv_max /. 2.0));
                        ("error", Runtime.Cnt_error.code_name e.Runtime.Cnt_error.code);
                      ];
                  go (retry + 1) (dv_max /. 2.0) (damping *. 0.5) e
          in
          go 0 dv_max 1.0
            (Runtime.Cnt_error.make stage Runtime.Cnt_error.Internal "unreachable"))

let simulate circuit ~caps ~drives ~tstop ?dv_max ?samples watch =
  match simulate_checked circuit ~caps ~drives ~tstop ?dv_max ?samples watch with
  | Ok (waves, _) -> waves
  | Result.Error e -> Runtime.Cnt_error.raise_error e

let crossing_time w level direction =
  let n = Array.length w.times in
  let rec scan i =
    if i + 1 >= n then None
    else begin
      let v0 = w.voltages.(i) and v1 = w.voltages.(i + 1) in
      let crossed =
        match direction with
        | `Rising -> v0 < level && v1 >= level
        | `Falling -> v0 > level && v1 <= level
      in
      if crossed then begin
        let t0 = w.times.(i) and t1 = w.times.(i + 1) in
        let frac = if v1 = v0 then 0.0 else (level -. v0) /. (v1 -. v0) in
        Some (t0 +. (frac *. (t1 -. t0)))
      end
      else scan (i + 1)
    end
  in
  scan 0

let inverter_delay (tech : Tech.t) =
  let tech = Runtime.Cnt_error.get_exn (Tech.validate tech) in
  let vdd = tech.Tech.vdd in
  let c = Circuit.create () in
  let vdd_node = Circuit.node c "vdd" in
  let input = Circuit.node c "in" in
  let out = Circuit.node c "out" in
  Circuit.add_vsource c vdd_node vdd;
  Circuit.add_transistor c (Device.Pmos tech) ~d:out ~g:input ~s:vdd_node ();
  Circuit.add_transistor c (Device.Nmos tech) ~d:out ~g:input ~s:Circuit.ground ();
  (* Load: own drain caps + fanout-3 inverter input loads. *)
  let c_load =
    (2.0 *. tech.Tech.c_drain) +. (float_of_int Tech.fanout *. Tech.inverter_input_cap tech)
  in
  let t_edge = 2.0e-12 in
  let stim = step ~t0:t_edge ~rise:0.5e-12 ~low:0.0 ~high:vdd () in
  let tstop = 60.0e-12 in
  let waves =
    simulate c
      ~caps:[ (out, c_load) ]
      ~drives:[ (input, stim) ]
      ~tstop ~samples:3000 [ out ]
  in
  let wave = List.assoc out waves in
  let half = vdd /. 2.0 in
  let t_in = t_edge +. 0.25e-12 in
  match crossing_time wave half `Falling with
  | Some t_out -> t_out -. t_in
  | None ->
      Runtime.Cnt_error.failf stage Runtime.Cnt_error.Mismatch
        "Transient.inverter_delay: output never crossed 50%%"
