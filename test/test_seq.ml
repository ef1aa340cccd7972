module Seq = Nets.Seq
module N = Nets.Netlist
module B = Logic.Bitvec

(* A 4-bit synchronous counter: state + 1 every cycle. *)
let counter () =
  let t = Seq.create () in
  let q = Array.init 4 (fun i -> Seq.add_register t (Printf.sprintf "c%d" i)) in
  let one = N.add_node (Seq.comb t) (N.Constant true) [||] in
  let carry = ref one in
  Array.iteri
    (fun i qi ->
      let sum = N.add_node (Seq.comb t) N.Xor [| qi; !carry |] in
      carry := N.add_node (Seq.comb t) N.And [| qi; !carry |];
      Seq.connect t (Printf.sprintf "c%d" i) sum;
      Seq.add_output t (Printf.sprintf "o%d" i) sum)
    q;
  t

let counter_counts () =
  let t = counter () in
  let state = ref (Array.make 4 false) in
  for expected = 1 to 20 do
    let _, next = Seq.step t ~state:!state ~inputs:[||] in
    state := next;
    let v = ref 0 in
    Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) next;
    Alcotest.(check int) (Printf.sprintf "cycle %d" expected) (expected land 15) !v
  done

(* A 4-bit shift register fed by a true input: each register's D is the
   previous register's Q, so its mapping has no cells and a clock edge
   that wrote the Qs one at a time would let r1 see r0's new value. *)
let shift_register () =
  let t = Seq.create () in
  let x = Seq.add_input t "x" in
  let q = Array.init 4 (fun i -> Seq.add_register t (Printf.sprintf "r%d" i)) in
  Array.iteri
    (fun i _ -> Seq.connect t (Printf.sprintf "r%d" i) (if i = 0 then x else q.(i - 1)))
    q;
  Seq.add_output t "y" q.(3);
  t

let validation_error ~what name f =
  match f () with
  | _ -> Alcotest.failf "no error naming %s %s" what name
  | exception Runtime.Cnt_error.Error e ->
      Alcotest.(check bool)
        (Format.asprintf "netlist validation error naming %s %s: %a" what name
           Runtime.Cnt_error.pp e)
        true
        (e.Runtime.Cnt_error.stage = Runtime.Cnt_error.Netlist
        && e.Runtime.Cnt_error.code = Runtime.Cnt_error.Validation_error
        && List.assoc_opt what e.Runtime.Cnt_error.context = Some name)

let unconnected_register_fails () =
  let t = Seq.create () in
  let _ = Seq.add_register t "r" in
  validation_error ~what:"register" "r" (fun () -> Seq.registers t)

let unknown_register_fails () =
  let t = Seq.create () in
  let x = Seq.add_input t "x" in
  validation_error ~what:"register" "nosuch" (fun () -> Seq.connect t "nosuch" x)

(* ------------------------------------------------------------------ *)
(* CRC *)

let crc_reference_known_value () =
  (* CRC-32 of the single byte 0x00 from init 0xFFFFFFFF, no final xor /
     reflection steps beyond the reflected polynomial itself. *)
  let data = Array.make 8 false in
  let r = Circuits.Crc.reference_step 0xFFFFFFFFl ~data in
  (* Cross-check against an independent table-based computation of the same
     convention: crc := (crc >> 8) ^ table[(crc ^ byte) & 0xff]. *)
  let table_entry byte =
    let c = ref (Int32.of_int byte) in
    for _ = 1 to 8 do
      let lsb = Int32.logand !c 1l <> 0l in
      c := Int32.shift_right_logical !c 1;
      if lsb then c := Int32.logxor !c Circuits.Crc.crc32_polynomial
    done;
    !c
  in
  let expected =
    Int32.logxor (Int32.shift_right_logical 0xFFFFFFFFl 8) (table_entry (0xFF land 0xFF))
  in
  Alcotest.(check int32) "one zero byte" expected r

let crc_circuit_matches_reference () =
  List.iter
    (fun data_width ->
      let seq = Circuits.Crc.generate ~data_width () in
      let rng = Logic.Prng.create 4L in
      let state = ref 0xFFFFFFFFl in
      let circuit_state =
        ref
          (Array.init 32 (fun i ->
               Int32.logand (Int32.shift_right_logical 0xFFFFFFFFl i) 1l <> 0l))
      in
      for cycle = 1 to 30 do
        let data = Array.init data_width (fun _ -> Logic.Prng.bool rng) in
        state := Circuits.Crc.reference_step !state ~data;
        let outs, next = Seq.step seq ~state:!circuit_state ~inputs:data in
        circuit_state := next;
        let got = ref 0l in
        Array.iteri (fun i b -> if b then got := Int32.logor !got (Int32.shift_left 1l i)) next;
        Alcotest.(check int32) (Printf.sprintf "w=%d cycle %d" data_width cycle) !state !got;
        (* outputs expose the next state *)
        Array.iteri
          (fun i b -> Alcotest.(check bool) "output = next state" next.(i) b)
          (Array.sub outs 0 32)
      done)
    [ 1; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Register model + Seqmap *)

let register_model_sane () =
  let amb = Cell.Register.ambipolar_cntfet in
  let cmos = Cell.Register.cmos in
  Alcotest.(check bool) "ambipolar smaller" true
    (amb.Cell.Register.transistors < cmos.Cell.Register.transistors);
  Alcotest.(check (float 0.0)) "no clk' net in ambipolar" 0.0
    amb.Cell.Register.clock_internal_cap;
  Alcotest.(check bool) "cmos clk' net toggles" true
    (cmos.Cell.Register.clock_internal_cap > 0.0);
  Alcotest.(check bool) "leakage ordering" true
    (amb.Cell.Register.leakage < cmos.Cell.Register.leakage)

let seqmap_preserves_function () =
  (* One mapped cycle must equal one reference cycle for random stimulus. *)
  let seq = Circuits.Crc.generate ~data_width:4 () in
  let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
  let mapped, reg_nets = Techmap.Seqmap.map_seq ml seq in
  let rng = Logic.Prng.create 6L in
  let regs = Seq.registers seq in
  let state = ref (Array.make (List.length regs) false) in
  for _ = 1 to 20 do
    let inputs = Array.init 4 (fun _ -> Logic.Prng.bool rng) in
    let _, expected_next = Seq.step seq ~state:!state ~inputs in
    (* drive the mapped netlist with the same stimulus *)
    let stimulus =
      Array.map
        (fun (name, _) ->
          let v = B.create 1 in
          let value =
            if String.length name > 2 && String.sub name (String.length name - 2) 2 = ".q"
            then begin
              let reg = String.sub name 0 (String.length name - 2) in
              let rec index i = function
                | [] -> failwith "missing reg"
                | (n, _, _) :: rest -> if n = reg then i else index (i + 1) rest
              in
              !state.(index 0 regs)
            end
            else begin
              let rec pos i = function
                | [] -> failwith "missing input"
                | x :: rest -> if x = name then i else pos (i + 1) rest
              in
              inputs.(pos 0 [ "d0"; "d1"; "d2"; "d3" ])
            end
          in
          B.set v 0 value;
          v)
        mapped.Techmap.Mapped.pi_nets
    in
    let values = Techmap.Mapped.simulate mapped stimulus in
    List.iteri
      (fun ri (_, _, d_net) ->
        Alcotest.(check bool)
          (Printf.sprintf "reg %d next" ri)
          expected_next.(ri)
          (B.get values.(d_net) 0))
      reg_nets;
    state := expected_next
  done

let seqmap_report_sane () =
  let ml = Techmap.Matchlib.build Cell.Genlib.generalized_cntfet in
  let r = Techmap.Seqmap.estimate ~cycles:500 ml (Circuits.Crc.generate ~data_width:4 ()) in
  Alcotest.(check int) "32 registers" 32 r.Techmap.Seqmap.registers;
  Alcotest.(check bool) "positive total" true (r.Techmap.Seqmap.total > 0.0);
  Alcotest.(check bool) "clock power positive" true (r.Techmap.Seqmap.clock_power > 0.0);
  Alcotest.(check bool) "total >= comb" true
    (r.Techmap.Seqmap.total >= r.Techmap.Seqmap.comb_power.Techmap.Estimate.total);
  Alcotest.(check bool) "min period > comb delay" true
    (r.Techmap.Seqmap.min_period > r.Techmap.Seqmap.comb_power.Techmap.Estimate.delay)

let seq_generalized_beats_cmos () =
  let run lib =
    Techmap.Seqmap.estimate ~cycles:500 (Techmap.Matchlib.build lib)
      (Circuits.Crc.generate ~data_width:8 ())
  in
  let gen = run Cell.Genlib.generalized_cntfet in
  let cmos = run Cell.Genlib.cmos in
  Alcotest.(check bool) "fewer gates" true (gen.Techmap.Seqmap.gates < cmos.Techmap.Seqmap.gates);
  Alcotest.(check bool) "less energy per cycle" true
    (gen.Techmap.Seqmap.epc < 0.5 *. cmos.Techmap.Seqmap.epc);
  Alcotest.(check bool) "faster clock" true
    (gen.Techmap.Seqmap.min_period *. 4.0 < cmos.Techmap.Seqmap.min_period)

(* The reference for [Seqmap.estimate]: its earlier cycle loop, one
   whole-vector [Mapped.simulate] per cycle on fresh vectors with each
   register rebound to that cycle's D vector, and its report assembled
   expression for expression. *)
let reference_estimate ~cycles ~seed ml seq =
  let module M = Techmap.Mapped in
  let module E = Techmap.Estimate in
  let module Reg = Cell.Register in
  let mapped, reg_nets = Techmap.Seqmap.map_seq ml seq in
  let lib = mapped.M.lib in
  let tech = lib.Cell.Genlib.tech in
  let vdd = tech.Spice.Tech.vdd in
  let f = Spice.Tech.frequency in
  let dff = Reg.for_library lib in
  let streams = 64 in
  let rng = Logic.Prng.create seed in
  let nregs = List.length reg_nets in
  let q_nets = Array.of_list (List.map (fun (_, q, _) -> q) reg_nets) in
  let d_nets = Array.of_list (List.map (fun (_, _, d) -> d) reg_nets) in
  let is_q = Hashtbl.create 16 in
  Array.iteri (fun i q -> Hashtbl.replace is_q q i) q_nets;
  let state = Array.init nregs (fun _ -> B.create streams) in
  let num_nets = mapped.M.num_nets in
  let toggles = Array.make num_nets 0 in
  let ones = Array.make num_nets 0 in
  let state_toggles = ref 0 in
  let prev = Array.make num_nets (B.create streams) in
  for cycle = 0 to cycles - 1 do
    let stimulus =
      Array.map
        (fun (_, net) ->
          match Hashtbl.find_opt is_q net with
          | Some ri -> state.(ri)
          | None ->
              let v = B.create streams in
              B.fill_random rng v;
              v)
        mapped.M.pi_nets
    in
    let values = M.simulate mapped stimulus in
    for net = 0 to num_nets - 1 do
      ones.(net) <- ones.(net) + B.popcount values.(net);
      if cycle > 0 then
        toggles.(net) <- toggles.(net) + B.popcount (B.logxor values.(net) prev.(net));
      prev.(net) <- values.(net)
    done;
    for ri = 0 to nregs - 1 do
      let next = values.(d_nets.(ri)) in
      state_toggles := !state_toggles + B.popcount (B.logxor next state.(ri));
      state.(ri) <- next
    done
  done;
  let samples_t = float_of_int (max 1 ((cycles - 1) * streams)) in
  let samples_p = float_of_int (cycles * streams) in
  let toggle net = float_of_int toggles.(net) /. samples_t in
  let prob net = float_of_int ones.(net) /. samples_p in
  let loads = M.net_loads mapped in
  Array.iter (fun q -> loads.(q) <- loads.(q) +. dff.Reg.q_drive_cap) q_nets;
  Array.iter (fun d -> loads.(d) <- loads.(d) +. dff.Reg.d_cap) d_nets;
  let dynamic = ref 0.0 in
  for net = 0 to num_nets - 1 do
    dynamic := !dynamic +. (toggle net *. loads.(net) *. f *. vdd *. vdd)
  done;
  let static, gate_leak = E.static_components mapped ~probs:prob in
  let short_circuit = Spice.Tech.short_circuit_fraction *. !dynamic in
  let comb_total = !dynamic +. short_circuit +. static +. gate_leak in
  let delay = M.delay mapped in
  let comb_power =
    {
      E.gates = M.num_gates mapped;
      area = M.area mapped;
      delay;
      dynamic = !dynamic;
      short_circuit;
      static;
      gate_leak;
      total = comb_total;
      edp = Power.Powermodel.edp ~total_power:comb_total ~delay ();
    }
  in
  let nregs_f = float_of_int nregs in
  let clock_power =
    nregs_f *. (dff.Reg.clock_cap +. dff.Reg.clock_internal_cap) *. f *. vdd *. vdd
  in
  let state_alpha = float_of_int !state_toggles /. samples_t /. max 1.0 nregs_f in
  let reg_internal_power = nregs_f *. state_alpha *. dff.Reg.internal_cap *. f *. vdd *. vdd in
  let reg_leak_power = nregs_f *. dff.Reg.leakage *. vdd in
  let total = comb_total +. clock_power +. reg_internal_power +. reg_leak_power in
  {
    Techmap.Seqmap.gates = M.num_gates mapped;
    registers = nregs;
    comb_area = M.area mapped;
    reg_area = nregs_f *. float_of_int dff.Reg.transistors;
    min_period = delay +. (4.0 *. tech.Spice.Tech.tau);
    comb_power;
    clock_power;
    reg_internal_power;
    reg_leak_power;
    total;
    epc = total /. f;
  }

let matchlibs = lazy (List.map Techmap.Matchlib.build Cell.Genlib.all_libraries)

(* [Seqmap.estimate] returns the reference's report, float for float, on
   every built-in family and at cycle counts around the first toggle
   and past one word of streams. *)
let estimate_equals_reference name circuit () =
  List.iter
    (fun ml ->
      List.iter
        (fun cycles ->
          let seed = 21L in
          let got = Techmap.Seqmap.estimate ~cycles ~seed ml (circuit ()) in
          let expected = reference_estimate ~cycles ~seed ml (circuit ()) in
          if got <> expected then
            Alcotest.failf "%s on %s, %d cycles: epc %.17g J, expected %.17g J@.%a" name
              (Techmap.Matchlib.library ml).Cell.Genlib.name cycles got.Techmap.Seqmap.epc
              expected.Techmap.Seqmap.epc Techmap.Seqmap.pp_report got)
        [ 1; 2; 64; 300 ])
    (Lazy.force matchlibs)

let crc_estimate_equals_reference () =
  List.iter
    (fun data_width ->
      estimate_equals_reference
        (Printf.sprintf "CRC-32, %d bits/cycle" data_width)
        (fun () -> Circuits.Crc.generate ~data_width ())
        ())
    [ 1; 4; 8 ]

(* The cycle loop allocates nothing per net or input: its one stimulus
   fill per cycle boxes the generator's state (3 words) and nothing else
   allocates. The whole-vector loop allocated several words per net and
   cycle. *)
let estimate_allocation_is_independent_of_cycles () =
  let ml = List.hd (Lazy.force matchlibs) in
  let words cycles =
    let seq = Circuits.Crc.generate ~data_width:8 () in
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    ignore (Techmap.Seqmap.estimate ~cycles ml seq);
    Gc.minor ();
    let minor', promoted', major' = Gc.counters () in
    minor' +. major' -. promoted' -. (minor +. major -. promoted)
  in
  let small = words 100 and large = words 1_100 in
  if large -. small >= 4_000.0 then
    Alcotest.failf "%.0f words allocated at 1 100 cycles, %.0f at 100 (%.1f per cycle)"
      large small ((large -. small) /. 1_000.0)

let () =
  Alcotest.run "seq"
    [
      ( "seq-core",
        [
          Alcotest.test_case "counter counts" `Quick counter_counts;
          Alcotest.test_case "unconnected register" `Quick unconnected_register_fails;
          Alcotest.test_case "unknown register" `Quick unknown_register_fails;
        ] );
      ( "crc",
        [
          Alcotest.test_case "reference known value" `Quick crc_reference_known_value;
          Alcotest.test_case "circuit matches reference" `Quick crc_circuit_matches_reference;
        ] );
      ( "seqmap",
        [
          Alcotest.test_case "register model" `Quick register_model_sane;
          Alcotest.test_case "mapped cycle = reference cycle" `Slow seqmap_preserves_function;
          Alcotest.test_case "report sane" `Slow seqmap_report_sane;
          Alcotest.test_case "generalized beats cmos" `Slow seq_generalized_beats_cmos;
          Alcotest.test_case "estimate = reference loop: CRC-32" `Slow
            crc_estimate_equals_reference;
          Alcotest.test_case "estimate = reference loop: counter" `Slow
            (estimate_equals_reference "4-bit counter" counter);
          Alcotest.test_case "estimate = reference loop: shift register" `Slow
            (estimate_equals_reference "4-bit shift register" shift_register);
          Alcotest.test_case "estimate allocates nothing per net" `Slow
            estimate_allocation_is_independent_of_cycles;
        ] );
    ]
