module C = Spice.Circuit
module D = Spice.Device
module T = Spice.Tech

(* The key captures every tech field the DC solve depends on, so derived
   corners (other supplies, temperatures, threshold shifts) and data-file
   corners (which can override slope, saturation exponent or specific
   current while keeping family/vdd/vth — see Cell.Libfile) do not
   collide. [ss], [sat] and [ispec] matter because [solve_pattern] builds
   unit n-devices straight from the corner record. *)
type key = {
  family : T.family;
  vdd : float;
  vt : float;
  vth : float;
  ss : float;
  sat : float;
  ispec : float;
  pattern : Pattern.t;
}

let cache : (key, float) Hashtbl.t = Hashtbl.create 64
let hits = ref 0
let misses = ref 0

let clear_cache () =
  Hashtbl.reset cache;
  hits := 0;
  misses := 0

type stats = { entries : int; hits : int; misses : int }

let cache_stats () =
  { entries = Hashtbl.length cache; hits = !hits; misses = !misses }

let hit_ratio s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

(* Build the pattern between two circuit nodes as unit off n-devices (gate
   grounded, maximum-leakage bias per the paper's equal-n/p assumption). *)
let rec build c tech ~top ~bottom ~fresh = function
  | Pattern.Unit k ->
      for _ = 1 to k do
        C.add_transistor c (D.Nmos tech) ~d:top ~g:C.ground ~s:bottom ()
      done
  | Pattern.Series parts ->
      let rec chain top = function
        | [] -> ()
        | [ last ] -> build c tech ~top ~bottom ~fresh last
        | part :: rest ->
            let mid = fresh () in
            build c tech ~top ~bottom:mid ~fresh part;
            chain mid rest
      in
      chain top parts
  | Pattern.Parallel parts ->
      List.iter (fun part -> build c tech ~top ~bottom ~fresh part) parts

let solve_pattern tech pattern =
  match pattern with
  | Pattern.Unit 0 -> 0.0
  | Pattern.Unit _ | Pattern.Series _ | Pattern.Parallel _ ->
      let c = C.create () in
      let vdd = C.node c "vdd" in
      C.add_vsource c vdd tech.T.vdd;
      let counter = ref 0 in
      let fresh () =
        incr counter;
        C.node c (Printf.sprintf "n%d" !counter)
      in
      build c tech ~top:vdd ~bottom:C.ground ~fresh pattern;
      let sol = C.solve c in
      C.source_current c sol vdd

let pattern_ioff tech pattern =
  let key =
    {
      family = tech.T.family;
      vdd = tech.T.vdd;
      vt = tech.T.temp_vt;
      vth = tech.T.vth_n;
      ss = tech.T.ss_factor;
      sat = tech.T.sat_exponent;
      ispec = tech.T.ispec;
      pattern;
    }
  in
  match Hashtbl.find_opt cache key with
  | Some i ->
      incr hits;
      Runtime.Telemetry.count "leakage.cache.hits" 1;
      i
  | None ->
      incr misses;
      Runtime.Telemetry.count "leakage.cache.misses" 1;
      Runtime.Telemetry.count "leakage.dc_solves" 1;
      let i = solve_pattern tech pattern in
      Hashtbl.replace cache key i;
      i

let gate_ioff tech (gp : Pattern.gate_patterns) =
  let unit = pattern_ioff tech (Pattern.Unit 1) in
  Array.map
    (fun p -> pattern_ioff tech p +. (float_of_int gp.Pattern.extra_unit_offs *. unit))
    gp.Pattern.off_pattern

let gate_ig tech (gp : Pattern.gate_patterns) =
  Array.init
    (Array.length gp.Pattern.on_devices)
    (fun v ->
      (float_of_int gp.Pattern.on_devices.(v) *. tech.T.ig_on_unit)
      +. (float_of_int gp.Pattern.off_devices.(v) *. tech.T.ig_off_unit))
