module B = Logic.Bitvec
module TT = Logic.Truthtable
module T = Runtime.Telemetry

type result = { num_patterns : int; node_values : B.t array }

(* ------------------------------------------------------------------ *)
(* Cover kernel. A cover is an OR of cubes, a cube an AND of literals
   over whole fanin vectors. It is evaluated one literal at a time with
   the word range as the innermost loop, so each pass is a straight
   load-op-store over unboxed words and allocates nothing. *)

type cube = { pos : B.words array; neg : B.words array }
type cover = cube array

let cover_of_cubes cubes srcs =
  let pick mask =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if (mask lsr i) land 1 = 1 then srcs.(i) :: acc else acc)
    in
    Array.of_list (go (Array.length srcs - 1) [])
  in
  Array.of_list
    (List.map (fun { TT.pos; neg } -> { pos = pick pos; neg = pick neg }) cubes)

let cover_cubes = Array.length

(* Literal [k] of a cube: its positive literals, then its negative ones,
   which [flip] complements. *)
let lit c k =
  let np = Array.length c.pos in
  if k < np then c.pos.(k) else c.neg.(k - np)

let flip c k = if k < Array.length c.pos then 0L else -1L

let fill dst x lo hi =
  for w = lo to hi do
    B.store dst (w lsl 3) x
  done

(* dst := lit *)
let set_lit dst src flip lo hi =
  for w = lo to hi do
    let o = w lsl 3 in
    B.store dst o (Int64.logxor (B.load src o) flip)
  done

(* dst := dst & lit *)
let and_lit dst src flip lo hi =
  for w = lo to hi do
    let o = w lsl 3 in
    B.store dst o (Int64.logand (B.load dst o) (Int64.logxor (B.load src o) flip))
  done

(* dst := dst | lit *)
let or_lit dst src flip lo hi =
  for w = lo to hi do
    let o = w lsl 3 in
    B.store dst o (Int64.logor (B.load dst o) (Int64.logxor (B.load src o) flip))
  done

(* dst := dst | (acc & lit) *)
let or_and_lit dst acc src flip lo hi =
  for w = lo to hi do
    let o = w lsl 3 in
    B.store dst o
      (Int64.logor (B.load dst o)
         (Int64.logand (B.load acc o) (Int64.logxor (B.load src o) flip)))
  done

(* dst := dst ^ src *)
let xor_into dst src lo hi =
  for w = lo to hi do
    let o = w lsl 3 in
    B.store dst o (Int64.logxor (B.load dst o) (B.load src o))
  done

(* The first cube is built in [dst]; every later one is built in
   [scratch] and ORed into [dst] by the pass of its last literal. *)
let eval_cover cover ~dst ~scratch ~lo ~len =
  let hi = lo + len - 1 in
  if Array.length cover = 0 then fill dst 0L lo hi;
  for j = 0 to Array.length cover - 1 do
    let c = cover.(j) in
    let n = Array.length c.pos + Array.length c.neg in
    if n = 0 then fill dst (-1L) lo hi
    else if j = 0 then begin
      set_lit dst (lit c 0) (flip c 0) lo hi;
      for k = 1 to n - 1 do
        and_lit dst (lit c k) (flip c k) lo hi
      done
    end
    else if n = 1 then or_lit dst (lit c 0) (flip c 0) lo hi
    else begin
      set_lit scratch (lit c 0) (flip c 0) lo hi;
      for k = 1 to n - 2 do
        and_lit scratch (lit c k) (flip c k) lo hi
      done;
      or_and_lit dst scratch (lit c (n - 1)) (flip c (n - 1)) lo hi
    end
  done

(* ------------------------------------------------------------------ *)
(* Flat compiled form. The netlist is lowered once per [run] into an
   instruction array over the word buffers (inputs alias the stimulus
   vectors, every other node gets a preallocated vector). Every gate but
   XOR/XNOR lowers to a cover. Tail bits past [num_patterns] are clamped
   once at the end. *)

type instr =
  | Cover of B.words * cover
  | Parity of B.words * B.words array * int64  (** XOR of the fanins, then flip *)

(* The empty cube is constant 1, the empty cover constant 0. *)
let lower (op : Netlist.op) dst srcs =
  let cover cubes = Some (Cover (dst, cubes)) in
  let each ~negated =
    Array.map
      (fun s -> if negated then { pos = [||]; neg = [| s |] } else { pos = [| s |]; neg = [||] })
      srcs
  in
  match op with
  | Netlist.Input -> None
  | Netlist.Constant b -> cover (if b then [| { pos = [||]; neg = [||] } |] else [||])
  | Netlist.Buf | Netlist.And -> cover [| { pos = srcs; neg = [||] } |]
  | Netlist.Not | Netlist.Nor -> cover [| { pos = [||]; neg = srcs } |]
  | Netlist.Or -> cover (each ~negated:false)
  | Netlist.Nand -> cover (each ~negated:true)
  | Netlist.Xor -> Some (Parity (dst, srcs, 0L))
  | Netlist.Xnor -> Some (Parity (dst, srcs, -1L))
  | Netlist.Mux ->
      (* fanins [s; a; b]: s & b | ~s & a *)
      cover
        [| { pos = [| srcs.(0); srcs.(2) |]; neg = [||] };
           { pos = [| srcs.(1) |]; neg = [| srcs.(0) |] } |]
  | Netlist.Maj ->
      let pair i j = { pos = [| srcs.(i); srcs.(j) |]; neg = [||] } in
      cover [| pair 0 1; pair 0 2; pair 1 2 |]
  | Netlist.Lut tt -> cover (cover_of_cubes (TT.isop tt) srcs)

let compile t node_values =
  let rev = ref [] in
  Netlist.iter_nodes t (fun id op fanins ->
      let srcs = Array.map (fun f -> B.words node_values.(f)) fanins in
      Option.iter (fun i -> rev := i :: !rev) (lower op (B.words node_values.(id)) srcs));
  Array.of_list (List.rev !rev)

let eval_range instrs ~scratch ~lo ~len =
  Array.iter
    (function
      | Cover (dst, c) -> eval_cover c ~dst ~scratch ~lo ~len
      | Parity (dst, srcs, flip) ->
          let hi = lo + len - 1 in
          set_lit dst srcs.(0) flip lo hi;
          for i = 1 to Array.length srcs - 1 do
            xor_into dst srcs.(i) lo hi
          done)
    instrs

let words_per_vec patterns = max 1 ((patterns + 63) / 64)

let run t input_vectors =
  let ins = Netlist.inputs t in
  assert (Array.length input_vectors = Array.length ins);
  let num_patterns =
    if Array.length input_vectors = 0 then 0 else B.length input_vectors.(0)
  in
  Array.iter (fun v -> assert (B.length v = num_patterns)) input_vectors;
  let node_values =
    Array.init (Netlist.size t) (fun _ -> B.create num_patterns)
  in
  Array.iteri (fun i id -> node_values.(id) <- input_vectors.(i)) ins;
  let instrs = compile t node_values in
  let scratch = B.words (B.create num_patterns) in
  let wpv = words_per_vec num_patterns in
  let t0 = if T.enabled () then T.now () else 0.0 in
  eval_range instrs ~scratch ~lo:0 ~len:wpv;
  Array.iter B.clamp node_values;
  if T.enabled () then begin
    let dt = T.now () -. t0 in
    T.count "sim.words_evaluated" (Array.length instrs * wpv);
    T.count "sim.nodes_evaluated" (Array.length instrs);
    if dt > 0.0 && num_patterns > 0 then
      T.observe "sim.patterns_per_s" (float_of_int num_patterns /. dt)
  end;
  { num_patterns; node_values }

(* Draw [k] of one generator from [seed] is word [k mod words] of vector
   [k / words]: counter mode lets any word range start at its own draw. *)
let fill_stimulus ~seed ~words ~input ~lo ~len dst ~at =
  let rng = Logic.Prng.create seed in
  Logic.Prng.jump rng ((input * words) + lo);
  B.fill_words rng dst ~at ~len

let random_stimulus ?domains ?(seed = 42L) ~inputs ~patterns () =
  (match domains with
  | Some d when d <> 1 -> invalid_arg "Sim.random_stimulus: ~domains must be 1"
  | _ -> ());
  let wpv = words_per_vec patterns in
  Array.init inputs (fun input ->
      let v = B.create patterns in
      fill_stimulus ~seed ~words:wpv ~input ~lo:0 ~len:wpv (B.words v) ~at:0;
      B.clamp v;
      v)

let run_random ?(seed = 42L) t n =
  run t (random_stimulus ~seed ~inputs:(Netlist.num_inputs t) ~patterns:n ())

let signal_probability r id =
  if r.num_patterns = 0 then 0.0
  else float_of_int (B.popcount r.node_values.(id)) /. float_of_int r.num_patterns

let toggle_rate r id =
  if r.num_patterns <= 1 then 0.0
  else float_of_int (B.transitions r.node_values.(id)) /. float_of_int (r.num_patterns - 1)

let output_values t r =
  Array.map (fun (name, id) -> (name, r.node_values.(id))) (Netlist.outputs t)
