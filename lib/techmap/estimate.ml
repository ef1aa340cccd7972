module B = Logic.Bitvec
module D = Runtime.Dpool
module G = Cell.Genlib

type report = {
  gates : int;
  area : float;
  delay : float;
  dynamic : float;
  short_circuit : float;
  static : float;
  gate_leak : float;
  total : float;
  edp : float;
}

let default_patterns = 640_000

(* Expected per-vector current of a cell assuming independent inputs with
   the given per-pin probabilities of being 1. *)
let expected_current probs by_vector =
  let pins = Array.length probs in
  let total = ref 0.0 in
  for v = 0 to (1 lsl pins) - 1 do
    let p = ref 1.0 in
    for j = 0 to pins - 1 do
      p := !p *. if (v lsr j) land 1 = 1 then probs.(j) else 1.0 -. probs.(j)
    done;
    total := !total +. (!p *. by_vector.(v))
  done;
  !total

module T = Runtime.Telemetry

let static_components (m : Mapped.t) ~probs =
  let tech = m.Mapped.lib.G.tech in
  let vdd = tech.Spice.Tech.vdd in
  let char_cache : (string, float array * float array) Hashtbl.t = Hashtbl.create 64 in
  let char_of gate =
    let name = gate.G.cell.Cell.Cells.name in
    match Hashtbl.find_opt char_cache name with
    | Some c -> c
    | None ->
        let pins = gate.G.cell.Cell.Cells.pins in
        let gp = Power.Pattern.analyze gate.G.impl ~pins in
        let ioff = Power.Leakage.gate_ioff tech gp in
        let ig = Power.Leakage.gate_ig tech gp in
        Hashtbl.replace char_cache name (ioff, ig);
        (ioff, ig)
  in
  (* A net feeds several pins; ask [probs] once per net (NaN = not yet). *)
  let net_probs = Array.make m.Mapped.num_nets Float.nan in
  let prob net =
    if Float.is_nan net_probs.(net) then net_probs.(net) <- probs net;
    net_probs.(net)
  in
  let static = ref 0.0 and gate_leak = ref 0.0 in
  Array.iter
    (fun (c : Mapped.cell) ->
      let ioff_by_vector, ig_by_vector = char_of c.Mapped.gate in
      let pin_probs = Array.map prob c.Mapped.inputs in
      static := !static +. (expected_current pin_probs ioff_by_vector *. vdd);
      gate_leak := !gate_leak +. (expected_current pin_probs ig_by_vector *. vdd))
    m.Mapped.cells;
  (!static, !gate_leak)

(* The sweep's block: 64 words (4 096 patterns), 512 bytes per net, so a
   whole circuit's block stays in cache while it is simulated and
   counted (Table 1's largest mapping, des on CMOS, has 3 724 nets:
   1.9 MB). *)
let block_words = 64

(* One domain's buffers, allocated at its first chunk and reused for the
   rest: a block vector per net as [Mapped.net_vectors] assigns them, the
   cells' covers lowered onto them, and the kernel's scratch. *)
type buffers = { nets : B.words array; cells : Mapped.lowered; cubes : int; scratch : B.words }

let buffers (m : Mapped.t) ~words =
  let vectors, cells = Mapped.net_vectors m ~patterns:(64 * words) in
  {
    nets = Array.map B.words vectors;
    cells;
    cubes = Mapped.cube_count cells;
    scratch = B.words (B.create (64 * words));
  }

(* What one chunk of blocks counted, per net: its ones, the differing
   pairs of adjacent bits inside the chunk, and its first and last bits,
   which pair up across the seams between chunks. *)
type counts = {
  first_block : int;
  ones : int array;
  transitions : int array;
  first : int array;
  last : int array;
}

let bit0 ws = Int64.to_int (Int64.logand (B.load ws 0) 1L)
let bit63 ws w = Int64.to_int (Int64.shift_right_logical (B.load ws (w lsl 3)) 63)

(* Every net's ones and transitions over [patterns] random patterns: the
   integers [Bitvec.popcount] and [Bitvec.transitions] give on the
   vectors [Mapped.simulate] computes from [Nets.Sim.random_stimulus],
   counted one block at a time with no vector held whole. *)
let sweep ?domains ~patterns ~seed (m : Mapped.t) =
  let nwords = max 1 ((patterns + 63) / 64) in
  let bw = min block_words nwords in
  let nblocks = (nwords + bw - 1) / bw in
  let tail = B.tail_mask patterns in
  let nets = m.Mapped.num_nets in
  let own = Array.make D.max_domains None and counted = Array.make D.max_domains [] in
  (* Only the calling domain (worker 0) charges the phase spans. The
     other domains' blocks run at the same time as its own, so their
     time would let the phases outgrow the sweep's wall; their share of
     the work shows in the counters. *)
  let phase ~worker name f = if worker = 0 then T.with_span name f else f () in
  let block ~worker b blk c =
    let w0 = blk * bw in
    let len = min bw (nwords - w0) in
    phase ~worker "estimate.stimulus" (fun () ->
        Array.iteri
          (fun input (_, net) ->
            Nets.Sim.fill_stimulus ~seed ~words:nwords ~input ~lo:w0 ~len b.nets.(net) ~at:0)
          m.Mapped.pi_nets);
    phase ~worker "estimate.simulate" (fun () ->
        Mapped.eval_range b.cells ~scratch:b.scratch ~lo:0 ~len);
    phase ~worker "estimate.toggles" (fun () ->
        let last = if w0 + len = nwords then tail else -1L in
        for net = 0 to nets - 1 do
          let ws = b.nets.(net) in
          (* A chunk's first bit is its own carry: no pair before it. *)
          if blk = c.first_block then begin
            c.first.(net) <- bit0 ws;
            c.last.(net) <- bit0 ws
          end;
          c.ones.(net) <- c.ones.(net) + B.popcount_words ws len ~last;
          c.transitions.(net) <-
            c.transitions.(net) + B.transitions_words ws len ~last ~carry:c.last.(net);
          c.last.(net) <- bit63 ws (len - 1)
        done)
  in
  let stats =
    D.run ?domains ~min_units_per_domain:4 ~units:nblocks (fun ~worker ~lo ~len ->
        let b =
          match own.(worker) with
          | Some b -> b
          | None ->
              let b = phase ~worker "estimate.simulate" (fun () -> buffers m ~words:bw) in
              own.(worker) <- Some b;
              b
        in
        let c =
          {
            first_block = lo;
            ones = Array.make nets 0;
            transitions = Array.make nets 0;
            first = Array.make nets 0;
            last = Array.make nets 0;
          }
        in
        for blk = lo to lo + len - 1 do
          block ~worker b blk c
        done;
        counted.(worker) <- c :: counted.(worker);
        if T.enabled () then begin
          let w0 = lo * bw and w1 = min ((lo + len) * bw) nwords in
          T.count "estimate.cube_words" (b.cubes * (w1 - w0));
          T.count
            (Printf.sprintf "estimate.d%d.patterns_simulated" worker)
            (max 0 (min (w1 * 64) patterns - (w0 * 64)))
        end)
  in
  T.observe "estimate.domains" (float_of_int stats.D.domains_used);
  (* The chunks in block order; each seam adds the pair of the earlier
     chunk's last bit and the later one's first. *)
  T.with_span "estimate.toggles" (fun () ->
      let chunks =
        Array.fold_left List.rev_append [] counted
        |> List.sort (fun a b -> Int.compare a.first_block b.first_block)
        |> Array.of_list
      in
      let ones = Array.make nets 0 and transitions = Array.make nets 0 in
      Array.iteri
        (fun k c ->
          for net = 0 to nets - 1 do
            let seam = if k = 0 then 0 else chunks.(k - 1).last.(net) lxor c.first.(net) in
            ones.(net) <- ones.(net) + c.ones.(net);
            transitions.(net) <- transitions.(net) + c.transitions.(net) + seam
          done)
        chunks;
      (ones, transitions))

let run ?domains ?(patterns = default_patterns) ?(seed = 42L)
    ?(wire_cap_per_fanout = 0.0) (m : Mapped.t) =
  T.with_span "techmap.estimate" (fun () ->
  let tech = m.Mapped.lib.G.tech in
  let vdd = tech.Spice.Tech.vdd in
  let f = Spice.Tech.frequency in
  let t0 = if T.enabled () then T.now () else 0.0 in
  (* The sweep's wall on the calling domain: its phases, and the domains'
     spawn and the wait for the last of them, which no phase covers. *)
  let ones, transitions =
    T.with_span "estimate.sweep" (fun () -> sweep ?domains ~patterns ~seed m)
  in
  if T.enabled () then begin
    let dt = T.now () -. t0 in
    T.count "estimate.patterns_simulated" patterns;
    T.count "estimate.cells_simulated" (Array.length m.Mapped.cells);
    if dt > 0.0 then
      T.observe "estimate.patterns_per_s" (float_of_int patterns /. dt)
  end;
  let toggle net =
    if patterns <= 1 then 0.0
    else float_of_int transitions.(net) /. float_of_int (patterns - 1)
  in
  let prob net = float_of_int ones.(net) /. float_of_int patterns in
  (* Dynamic power: every net that toggles charges its load. *)
  let loads = Mapped.net_loads ~wire_cap_per_fanout m in
  let dynamic = ref 0.0 in
  for net = 0 to m.Mapped.num_nets - 1 do
    dynamic := !dynamic +. (toggle net *. loads.(net) *. f *. vdd *. vdd)
  done;
  (* Static and gate leakage from the per-gate characterization. *)
  let static, gate_leak =
    T.with_span "estimate.characterize" (fun () -> static_components m ~probs:prob)
  in
  let short_circuit = Spice.Tech.short_circuit_fraction *. !dynamic in
  let total = !dynamic +. short_circuit +. static +. gate_leak in
  let delay = Mapped.delay m in
  {
    gates = Mapped.num_gates m;
    area = Mapped.area m;
    delay;
    dynamic = !dynamic;
    short_circuit;
    static;
    gate_leak;
    total;
    edp = Power.Powermodel.edp ~total_power:total ~delay ();
  })

let pp_report ppf r =
  Format.fprintf ppf
    "gates=%d area=%g delay=%.1fps PD=%.3guW PSC=%.3guW PS=%.3guW PG=%.3guW PT=%.3guW EDP=%.3g(1e-24 J.s)"
    r.gates r.area (r.delay *. 1e12) (r.dynamic *. 1e6) (r.short_circuit *. 1e6)
    (r.static *. 1e6) (r.gate_leak *. 1e6) (r.total *. 1e6) (r.edp *. 1e24)
