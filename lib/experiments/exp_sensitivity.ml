module T = Spice.Tech
module C = Power.Characterize

type vdd_point = {
  vdd : float;
  avg_gate_power_cnt : float;
  avg_gate_power_cmos : float;
  inv_delay_cnt : float;
  inv_delay_cmos : float;
}

type temp_point = { kelvin : float; ioff_cnt : float; ioff_cmos : float }

type mc_summary = {
  samples : int;
  sigma_vth : float;
  nominal : float;
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

let avg_power lib = (C.characterize lib).C.avg_total_power

let vdd_sweep () =
  List.map
    (fun vdd ->
      let cnt = T.with_vdd T.cntfet vdd in
      let cmos = T.with_vdd T.cmos vdd in
      {
        vdd;
        avg_gate_power_cnt =
          avg_power (Cell.Genlib.with_tech Cell.Genlib.generalized_cntfet cnt);
        avg_gate_power_cmos = avg_power (Cell.Genlib.with_tech Cell.Genlib.cmos cmos);
        inv_delay_cnt = Spice.Transient.inverter_delay cnt;
        inv_delay_cmos = Spice.Transient.inverter_delay cmos;
      })
    [ 0.6; 0.7; 0.8; 0.9; 1.0 ]

let temp_sweep () =
  List.map
    (fun kelvin ->
      let unit tech =
        Power.Leakage.pattern_ioff (T.with_temperature tech ~kelvin) (Power.Pattern.Unit 1)
      in
      { kelvin; ioff_cnt = unit T.cntfet; ioff_cmos = unit T.cmos })
    [ 250.0; 300.0; 350.0; 400.0 ]

(* Box-Muller Gaussian from the deterministic PRNG. *)
let gaussian rng sigma =
  let u1 = max 1e-12 (Logic.Prng.float rng) in
  let u2 = Logic.Prng.float rng in
  sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let monte_carlo ?(samples = 2000) ?(sigma = 0.03) tech =
  let rng = Logic.Prng.create 777L in
  let unit_off t =
    Spice.Device.ids (Spice.Device.Nmos t) ~vg:0.0 ~vd:t.T.vdd ~vs:0.0 ~vpg:0.0
  in
  let nominal = unit_off tech in
  let values =
    Array.init samples (fun _ -> unit_off (T.with_vth_shift tech (gaussian rng sigma)))
  in
  Array.sort compare values;
  let mean = Array.fold_left ( +. ) 0.0 values /. float_of_int samples in
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values
    /. float_of_int samples
  in
  {
    samples;
    sigma_vth = sigma;
    nominal;
    mean;
    std = sqrt var;
    p95 = values.(int_of_float (0.95 *. float_of_int samples));
  }

let run ~mc_samples () =
  {
    vdd_sweep = vdd_sweep ();
    temp_sweep = temp_sweep ();
    mc_cnt = monte_carlo ~samples:mc_samples T.cntfet;
    mc_cmos = monte_carlo ~samples:mc_samples T.cmos;
  }

let print ppf r =
  Report.render ppf
    {
      Report.title =
        "E13 (extension): supply sweep — library-average gate power and inverter delay";
      headers =
        [| "Vdd (V)"; "CNT PT (nW)"; "CMOS PT (nW)"; "CNT delay (ps)"; "CMOS delay (ps)" |];
      rows =
        List.map
          (fun p ->
            [|
              Report.f2 p.vdd;
              Report.f2 (p.avg_gate_power_cnt *. 1e9);
              Report.f2 (p.avg_gate_power_cmos *. 1e9);
              Report.f2 (p.inv_delay_cnt *. 1e12);
              Report.f2 (p.inv_delay_cmos *. 1e12);
            |])
          r.vdd_sweep;
    };
  Report.render ppf
    {
      Report.title = "E14 (extension): temperature sweep — unit device off-current";
      headers = [| "T (K)"; "CNTFET Ioff (nA)"; "CMOS Ioff (nA)"; "ratio" |];
      rows =
        List.map
          (fun p ->
            [|
              Report.f1 p.kelvin;
              Report.f3 (p.ioff_cnt *. 1e9);
              Report.f3 (p.ioff_cmos *. 1e9);
              Report.times (p.ioff_cmos /. p.ioff_cnt);
            |])
          r.temp_sweep;
    };
  Report.render ppf
    {
      Report.title =
        Printf.sprintf
          "E15 (extension): Monte-Carlo Ioff under %.0f mV Vth sigma (%d samples)"
          (r.mc_cnt.sigma_vth *. 1e3) r.mc_cnt.samples;
      headers = [| "Corner"; "Nominal (nA)"; "Mean (nA)"; "Std (nA)"; "95th pct (nA)" |];
      rows =
        [
          [|
            "cntfet-32nm";
            Report.f3 (r.mc_cnt.nominal *. 1e9);
            Report.f3 (r.mc_cnt.mean *. 1e9);
            Report.f3 (r.mc_cnt.std *. 1e9);
            Report.f3 (r.mc_cnt.p95 *. 1e9);
          |];
          [|
            "cmos-32nm";
            Report.f3 (r.mc_cmos.nominal *. 1e9);
            Report.f3 (r.mc_cmos.mean *. 1e9);
            Report.f3 (r.mc_cmos.std *. 1e9);
            Report.f3 (r.mc_cmos.p95 *. 1e9);
          |];
        ];
    };
  Format.fprintf ppf
    "Exponential Vth sensitivity skews the leakage distribution: the mean exceeds the nominal@.";
  Format.fprintf ppf
    "for both corners, but CNTFET leakage stays an order of magnitude below CMOS across@.";
  Format.fprintf ppf "supply, temperature and variation — the paper's static-power story is robust.@."

let scalars r =
  [
    ("vdd_points", float_of_int (List.length r.vdd_sweep));
    ("temp_points", float_of_int (List.length r.temp_sweep));
    ("mc_cnt_mean_over_nominal", r.mc_cnt.mean /. r.mc_cnt.nominal);
    ("mc_cnt_p95_over_mean", r.mc_cnt.p95 /. r.mc_cnt.mean);
    ("mc_cmos_mean_over_nominal", r.mc_cmos.mean /. r.mc_cmos.nominal);
  ]
