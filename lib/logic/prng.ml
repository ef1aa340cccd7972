type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer (Steele, Lea, Flood 2014). Inlined so that
   [fill]'s words stay unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The state lives in a local, which the compiler keeps unboxed, so the
   loop allocates nothing; [next64] boxes its state and its result. *)
let fill t dst ~at ~len =
  if at < 0 || len < 0 || (at + len) * 8 > Bytes.length dst then
    invalid_arg "Prng.fill";
  let s = ref t.state in
  for w = at to at + len - 1 do
    s := Int64.add !s golden;
    set64 dst (w lsl 3) (mix !s)
  done;
  t.state <- !s

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  let v = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let split t = create (next64 t)

(* SplitMix64 is counter-mode: the k-th output is mix (seed + k*golden),
   so skipping is a single multiply-add on the state. *)
let jump t n =
  assert (n >= 0);
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden)
