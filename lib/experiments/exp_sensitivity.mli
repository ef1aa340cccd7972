(** Experiments E13-E15 (extensions): sensitivity of the paper's
    conclusions to operating point and process variation.

    The paper fixes V_DD = 0.9 V, room temperature, and nominal devices,
    and itself notes that "more accurate results will require the
    utilization of a better device model". These studies exercise the
    model's knobs:

    E13 — supply sweep: per-gate average total power of the generalized
    library and transient inverter delay at each V_DD; the energy-delay
    trade as supply scales, for both corners.

    E14 — temperature sweep: unit off-currents (and hence static power)
    versus temperature; the CNTFET's steeper subthreshold slope makes its
    leakage grow faster in relative terms but it stays an order of
    magnitude below CMOS across the range.

    E15 — Monte-Carlo threshold variation: off-current distribution under
    Gaussian V_th jitter (CNT diameter variation); reports mean, standard
    deviation and the 95th percentile against the nominal value. *)

type vdd_point = {
  vdd : float;
  avg_gate_power_cnt : float;  (** W, generalized library average *)
  avg_gate_power_cmos : float;
  inv_delay_cnt : float;  (** s, transient-measured *)
  inv_delay_cmos : float;
}

type temp_point = {
  kelvin : float;
  ioff_cnt : float;  (** A, unit device *)
  ioff_cmos : float;
}

type mc_summary = {
  samples : int;
  sigma_vth : float;  (** V *)
  nominal : float;  (** A *)
  mean : float;
  std : float;
  p95 : float;
}

type result = {
  vdd_sweep : vdd_point list;
  temp_sweep : temp_point list;
  mc_cnt : mc_summary;
  mc_cmos : mc_summary;
}

val run : mc_samples:int -> unit -> result
(** The three studies; E15 draws [mc_samples] Monte-Carlo samples per
    corner. *)

val print : Format.formatter -> result -> unit

val scalars : result -> (string * float) list
(** Manifest scalars: sweep sizes and Monte-Carlo distribution ratios. *)
