(** Transient analysis: explicit adaptive time integration of node voltages
    over the device models.

    Used to {e derive} the intrinsic-delay technology booster that the paper
    takes from Deng et al. [10] ("the intrinsic CNTFET delay is 5x lower
    than the MOSFET delay"): stepping an inverter of each technology into
    its characterization load and measuring the 50 %-crossing propagation
    delay. Only capacitors at circuit nodes are modeled (C dV/dt = -I);
    nodes driven by sources follow their stimulus exactly. *)

type stimulus = float -> float
(** Voltage of a driven node as a function of time (seconds). *)

val step : ?t0:float -> ?rise:float -> low:float -> high:float -> unit -> stimulus
(** Linear ramp from [low] to [high] starting at [t0] (default 0) over
    [rise] seconds (default 1 ps). *)

type waveform = { times : float array; voltages : float array }

type diagnostics = {
  settle_steps : int;  (** DC-settle relaxation steps of the final attempt *)
  steps : int;  (** integration steps of the final attempt *)
  retries : int;  (** accuracy-halving retries that were needed *)
  min_dt : float;  (** smallest time step taken, s *)
  residual : float;  (** largest per-step voltage change when settle exited, V *)
  converged : bool;
}

val simulate_checked :
  Circuit.t ->
  caps:(Circuit.node * float) list ->
  drives:(Circuit.node * stimulus) list ->
  tstop:float ->
  ?dv_max:float ->
  ?samples:int ->
  ?max_retries:int ->
  Circuit.node list ->
  ((Circuit.node * waveform) list * diagnostics, Runtime.Cnt_error.t) result
(** Hardened entry point. Validates the circuit and every input (finite
    caps and stimuli, node ids in range, no zero-capacitance free node),
    then integrates; non-finite voltages and budget exhaustion trigger up to
    [max_retries] (default 2) retries with halved [dv_max] and damped settle
    updates before surfacing as typed [spice/non-finite] or
    [spice/convergence-failure] errors. Never returns a partial waveform. *)

val simulate :
  Circuit.t ->
  caps:(Circuit.node * float) list ->
  drives:(Circuit.node * stimulus) list ->
  tstop:float ->
  ?dv_max:float ->
  ?samples:int ->
  Circuit.node list ->
  (Circuit.node * waveform) list
(** [simulate circuit ~caps ~drives ~tstop watch] integrates from the DC
    solution at t = 0 (with every [drives] stimulus evaluated at 0) to
    [tstop], returning sampled waveforms for the watched nodes. Free nodes
    must appear in [caps]; driven nodes follow their stimulus. [dv_max]
    bounds the per-step voltage change (default 2 mV). Raising wrapper
    around {!simulate_checked}: raises [Runtime.Cnt_error.Error] instead of
    ever returning a truncated waveform. *)

val crossing_time : waveform -> float -> [ `Rising | `Falling ] -> float option
(** First time the waveform crosses the given level in the given direction
    (linear interpolation between samples). *)

val inverter_delay : Tech.t -> float
(** Propagation delay (input 50 % to output 50 %, falling output) of an
    inverter built in the given technology corner driving its intrinsic
    drain capacitance plus a fanout-3 inverter load. *)
