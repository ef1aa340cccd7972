(* Words are unboxed in [Bytes]: word [w] at byte offset [w lsl 3], native
   byte order. A vector always has at least one word. *)
type words = Bytes.t
type t = { len : int; data : words }

external load : words -> int -> int64 = "%caml_bytes_get64u"
external store : words -> int -> int64 -> unit = "%caml_bytes_set64u"

let nwords len = max 1 ((len + 63) / 64)

let create len =
  assert (len >= 0);
  { len; data = Bytes.make (8 * nwords len) '\000' }

let length t = t.len
let words t = t.data

(* The low [n] bits set, for [n] in [0, 63]. *)
let low_bits n = Int64.sub (Int64.shift_left 1L n) 1L

(* Mask clearing bits past [len] in the last word; all of it when the
   vector is empty. *)
let tail_mask len =
  if len = 0 then 0L
  else
    let r = len land 63 in
    if r = 0 then -1L else low_bits r

let clamp t =
  let o = (nwords t.len - 1) lsl 3 in
  store t.data o (Int64.logand (load t.data o) (tail_mask t.len))

(* Single bits go through the bounds-checked accessors, which read the
   same native-endian words. *)
let get t i =
  assert (i >= 0 && i < t.len);
  let x = Bytes.get_int64_ne t.data ((i lsr 6) lsl 3) in
  Int64.logand (Int64.shift_right_logical x (i land 63)) 1L = 1L

let set t i b =
  assert (i >= 0 && i < t.len);
  let o = (i lsr 6) lsl 3 and m = Int64.shift_left 1L (i land 63) in
  let x = Bytes.get_int64_ne t.data o in
  Bytes.set_int64_ne t.data o
    (if b then Int64.logor x m else Int64.logand x (Int64.lognot m))

let fill_words rng ws ~at ~len = Prng.fill rng ws ~at ~len

let fill_random rng t =
  fill_words rng t.data ~at:0 ~len:(nwords t.len);
  clamp t

(* One loop per operation: passing [Int64.logand] as an argument would box
   both operands of every call. *)
let logand a b =
  assert (a.len = b.len);
  let r = create a.len in
  for w = 0 to nwords a.len - 1 do
    let o = w lsl 3 in
    store r.data o (Int64.logand (load a.data o) (load b.data o))
  done;
  r

let logor a b =
  assert (a.len = b.len);
  let r = create a.len in
  for w = 0 to nwords a.len - 1 do
    let o = w lsl 3 in
    store r.data o (Int64.logor (load a.data o) (load b.data o))
  done;
  r

let logxor a b =
  assert (a.len = b.len);
  let r = create a.len in
  for w = 0 to nwords a.len - 1 do
    let o = w lsl 3 in
    store r.data o (Int64.logxor (load a.data o) (load b.data o))
  done;
  r

let lognot a =
  let r = create a.len in
  for w = 0 to nwords a.len - 1 do
    let o = w lsl 3 in
    store r.data o (Int64.lognot (load a.data o))
  done;
  clamp r;
  r

let equal a b = a.len = b.len && Bytes.equal a.data b.data

(* Inlined so that the word stays unboxed at the call sites below. *)
let[@inline] popcount_word x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* Ones in words [0, n) of [ws], word [n - 1] masked by [last]. *)
let popcount_words ws n ~last =
  let count = ref 0 in
  for w = 0 to n - 2 do
    count := !count + popcount_word (load ws (w lsl 3))
  done;
  !count + popcount_word (Int64.logand (load ws ((n - 1) lsl 3)) last)

let popcount t = popcount_words t.data (nwords t.len) ~last:(tail_mask t.len)

(* Bit i of [x lxor ((x lsl 1) lor prev)] compares bit i of a word with
   the bit before it, which for bit 0 is bit 63 of the word before, or
   [carry] before word 0. Masking the last word keeps the comparisons
   that end inside the vector. *)
let transitions_words ws n ~last ~carry =
  let count = ref 0 and prev = ref (Int64.of_int carry) in
  for w = 0 to n - 2 do
    let x = load ws (w lsl 3) in
    count := !count + popcount_word (Int64.logxor x (Int64.logor (Int64.shift_left x 1) !prev));
    prev := Int64.shift_right_logical x 63
  done;
  let x = load ws ((n - 1) lsl 3) in
  !count
  + popcount_word
      (Int64.logand last (Int64.logxor x (Int64.logor (Int64.shift_left x 1) !prev)))

(* Bit 0 as its own carry: the first bit has no bit before it. *)
let transitions t =
  transitions_words t.data (nwords t.len) ~last:(tail_mask t.len)
    ~carry:(Int64.to_int (Int64.logand (load t.data 0) 1L))

let copy t = { len = t.len; data = Bytes.copy t.data }

let pp ppf t =
  for i = t.len - 1 downto 0 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done
