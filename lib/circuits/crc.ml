module N = Nets.Netlist

let crc32_polynomial = 0xEDB88320l

(* Reflected-form LFSR step: bit = lsb(state) xor data; state >>= 1;
   if bit then state ^= poly. *)
let reference_step ?(polynomial = crc32_polynomial) state ~data =
  Array.fold_left
    (fun st bit ->
      let feedback = Int32.logand st 1l <> 0l <> bit in
      let shifted = Int32.shift_right_logical st 1 in
      if feedback then Int32.logxor shifted polynomial else shifted)
    state data

let generate ?(polynomial = crc32_polynomial) ~data_width () =
  let t = Nets.Seq.create () in
  let data = Array.init data_width (fun i -> Nets.Seq.add_input t (Printf.sprintf "d%d" i)) in
  let state =
    Array.init 32 (fun i -> Nets.Seq.add_register t (Printf.sprintf "s%d" i))
  in
  (* Unroll the bit-serial recurrence data_width times. *)
  let current = ref (Array.copy state) in
  Array.iter
    (fun data_bit ->
      let st = !current in
      let feedback = N.add_node (Nets.Seq.comb t) N.Xor [| st.(0); data_bit |] in
      let next =
        Array.init 32 (fun j ->
            let shifted = if j = 31 then None else Some st.(j + 1) in
            let tap = Int32.logand (Int32.shift_right_logical polynomial j) 1l <> 0l in
            match (shifted, tap) with
            | Some s, true -> N.add_node (Nets.Seq.comb t) N.Xor [| s; feedback |]
            | Some s, false -> s
            | None, true -> feedback
            | None, false -> N.add_node (Nets.Seq.comb t) (N.Constant false) [||])
      in
      current := next)
    data;
  Array.iteri
    (fun i d -> Nets.Seq.connect t (Printf.sprintf "s%d" i) d)
    !current;
  Array.iteri
    (fun i d -> Nets.Seq.add_output t (Printf.sprintf "crc%d" i) d)
    !current;
  t
