type t = { n : int; data : int64 array }

(* Number of storage words for an [n]-variable table. *)
let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Valid-bit mask for the (single) word of a small table. *)
let small_mask n = if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let nvars t = t.n

let const n b =
  assert (n >= 0 && n <= 16);
  let w = if b then small_mask n else 0L in
  { n; data = Array.make (nwords n) w }

(* Canonical word patterns for variables 0..5. *)
let var_pattern =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var n i =
  assert (i >= 0 && i < n && n <= 16);
  let words = nwords n in
  let data =
    if i < 6 then Array.make words (Int64.logand var_pattern.(i) (small_mask n))
    else
      Array.init words (fun w -> if (w lsr (i - 6)) land 1 = 1 then -1L else 0L)
  in
  { n; data }

(* ------------------------------------------------------------------ *)
(* One-word kernels                                                    *)

(* Tables of at most 6 variables as their single word (minterm [m] is
   bit [m]). [var_pattern.(i)] selects the minterms where input [i] is
   1. *)

(* Negate input [i]: the halves where it is 0 and 1 trade places. *)
let word_flip w i =
  let s = 1 lsl i and m = var_pattern.(i) in
  Int64.logor
    (Int64.shift_right_logical (Int64.logand w m) s)
    (Int64.shift_left (Int64.logand w (Int64.lognot m)) s)

(* Exchange inputs [i < j] with one delta swap: each minterm with input
   [i] set and [j] clear trades bits with its partner [delta] above. *)
let word_swap w i j =
  let delta = (1 lsl j) - (1 lsl i) in
  let m = Int64.logand var_pattern.(i) (Int64.lognot var_pattern.(j)) in
  let d = Int64.logand (Int64.logxor (Int64.shift_right_logical w delta) w) m in
  Int64.logxor (Int64.logxor w d) (Int64.shift_left d delta)

(* [permute] (input [v] becomes input [perm.(v)]) as at most k - 1
   swaps: settle input 0, then 1, ... in place. *)
let word_permute w perm =
  let k = Array.length perm in
  let pos = Array.init k Fun.id (* pos.(v): where input v sits now *)
  and at = Array.init k Fun.id (* at.(p): which input sits at p *) in
  let w = ref w in
  for v = 0 to k - 1 do
    let a = pos.(v) and b = perm.(v) in
    if a <> b then begin
      w := word_swap !w (min a b) (max a b);
      let u = at.(b) in
      pos.(u) <- a;
      at.(a) <- u;
      pos.(v) <- b;
      at.(b) <- v
    end
  done;
  !w

(* Whether the word's function depends on input [i]: the minterms with
   input [i] clear differ from their partners with it set. *)
let word_depends_on w i =
  let lo = Int64.lognot var_pattern.(i) in
  not
    (Int64.equal
       (Int64.logand w lo)
       (Int64.logand (Int64.shift_right_logical w (1 lsl i)) lo))

(* Exchange variables [i < j] of a table's words in place. Across words
   (variable [j >= 6] picks the word), the minterms with [i] set in a
   word where [j] is clear trade places with the minterms with [i] clear
   in its partner word. *)
let swap_words data i j =
  if j < 6 then Array.iteri (fun w x -> data.(w) <- word_swap x i j) data
  else if i < 6 then begin
    let s = 1 lsl (j - 6) and sh = 1 lsl i and m = var_pattern.(i) in
    let lo = Int64.lognot m in
    for w = 0 to Array.length data - 1 do
      if w land s = 0 then begin
        let a = data.(w) and b = data.(w + s) in
        data.(w) <- Int64.logor (Int64.logand a lo) (Int64.shift_left (Int64.logand b lo) sh);
        data.(w + s) <-
          Int64.logor (Int64.logand b m) (Int64.shift_right_logical (Int64.logand a m) sh)
      end
    done
  end
  else begin
    let si = 1 lsl (i - 6) and sj = 1 lsl (j - 6) in
    for w = 0 to Array.length data - 1 do
      if w land si <> 0 && w land sj = 0 then begin
        let w' = w - si + sj in
        let x = data.(w) in
        data.(w) <- data.(w');
        data.(w') <- x
      end
    done
  end

let map2 f a b =
  assert (a.n = b.n);
  { n = a.n; data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let logand = map2 Int64.logand
let logor = map2 Int64.logor
let logxor = map2 Int64.logxor

let lognot a =
  let m = small_mask a.n in
  { n = a.n; data = Array.map (fun w -> Int64.logand (Int64.lognot w) m) a.data }

let rec equal_words a b i = i < 0 || (Int64.equal a.(i) b.(i) && equal_words a b (i - 1))
let equal a b = a.n = b.n && equal_words a.data b.data (Array.length a.data - 1)
let compare a b = Stdlib.compare (a.n, a.data) (b.n, b.data)

let hash t =
  let h = ref t.n in
  Array.iter
    (fun w -> h := (!h * 31) + Int64.to_int (Int64.logxor w (Int64.shift_right_logical w 32)))
    t.data;
  Hashtbl.hash !h

let eval t m =
  assert (m >= 0 && m < 1 lsl t.n);
  Int64.logand (Int64.shift_right_logical t.data.(m lsr 6) (m land 63)) 1L = 1L

let popcount_word x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let count_ones t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.data

let is_const t =
  if equal t (const t.n false) then Some false
  else if equal t (const t.n true) then Some true
  else None

(* Positive/negative halves of a word with respect to an intra-word
   variable [i < 6]: [lo] keeps the minterms where variable i is 0,
   duplicated into both halves; [hi] the minterms where it is 1. *)
let word_cofactor i b w =
  let shift = 1 lsl i in
  let mask = Int64.logxor var_pattern.(i) (-1L) in
  (* mask selects bits where var i = 0 *)
  if b then begin
    let hi = Int64.logand w var_pattern.(i) in
    Int64.logor hi (Int64.shift_right_logical hi shift)
  end
  else begin
    let lo = Int64.logand w mask in
    Int64.logor lo (Int64.shift_left lo shift)
  end

let cofactor t i b =
  assert (i >= 0 && i < t.n);
  if i < 6 then
    { n = t.n;
      data =
        Array.map (fun w -> Int64.logand (word_cofactor i b w) (small_mask t.n)) t.data }
  else begin
    let stride = 1 lsl (i - 6) in
    let data =
      Array.init (Array.length t.data) (fun w ->
          let base = w land lnot stride in
          t.data.(if b then base lor stride else base))
    in
    { n = t.n; data }
  end

let depends_on t i =
  if t.n <= 6 then word_depends_on t.data.(0) i
  else not (equal (cofactor t i false) (cofactor t i true))

let support t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if depends_on t i then i :: acc else acc) in
  go (t.n - 1) []

let of_bits n values =
  assert (Array.length values = 1 lsl n);
  let data = Array.make (nwords n) 0L in
  Array.iteri
    (fun m b ->
      if b then data.(m lsr 6) <- Int64.logor data.(m lsr 6) (Int64.shift_left 1L (m land 63)))
    values;
  { n; data }

let rebuild n f = of_bits n (Array.init (1 lsl n) f)

let permute t p =
  assert (Array.length p = t.n);
  let remap m =
    let m' = ref 0 in
    for i = 0 to t.n - 1 do
      if (m lsr p.(i)) land 1 = 1 then m' := !m' lor (1 lsl i)
    done;
    !m'
  in
  rebuild t.n (fun m -> eval t (remap m))

let flip_input t i =
  assert (i >= 0 && i < t.n);
  rebuild t.n (fun m -> eval t (m lxor (1 lsl i)))

let shrink t =
  let sup = Array.of_list (support t) in
  let k = Array.length sup in
  if t.n <= 6 then begin
    (* Move the [j]-th support variable down to [j]: every variable it
       passes over is outside the support. *)
    let w = ref t.data.(0) in
    Array.iteri (fun j v -> if v <> j then w := word_swap !w j v) sup;
    { n = k; data = [| Int64.logand !w (small_mask k) |] }
  end
  else
    rebuild k (fun m ->
        let m' = ref 0 in
        Array.iteri (fun j v -> if (m lsr j) land 1 = 1 then m' := !m' lor (1 lsl v)) sup;
        (* Variables outside the support do not matter; leave them 0. *)
        eval t !m')

(* The words of [t] re-viewed over [n >= nvars t] variables that ignore
   the new ones: a small table's word repeats up to 64 bits, a large
   table's words repeat. *)
let expand_data t n =
  if t.n >= 6 then begin
    let last = Array.length t.data - 1 in
    Array.init (nwords n) (fun w -> t.data.(w land last))
  end
  else begin
    let w = ref t.data.(0) in
    for v = t.n to 5 do
      w := Int64.logor !w (Int64.shift_left !w (1 lsl v))
    done;
    Array.make (nwords n) (Int64.logand !w (small_mask n))
  end

let expand t n =
  assert (n >= t.n && n <= 16);
  { n; data = expand_data t n }

let stretch t n pos =
  assert (Array.length pos = t.n && n >= t.n && n <= 16);
  let data = expand_data t n in
  (* From the top: variable [i] moves up to [pos.(i)] past variables
     that are still ignored. *)
  for i = t.n - 1 downto 0 do
    let p = pos.(i) in
    if p <> i then begin
      assert (p > i && p < n);
      swap_words data i p
    end
  done;
  { n; data }

let of_int64 n w =
  assert (n <= 6);
  { n; data = [| Int64.logand w (small_mask n) |] }

let to_int64 t =
  assert (t.n <= 6);
  t.data.(0)

let pp ppf t =
  for w = Array.length t.data - 1 downto 0 do
    Format.fprintf ppf "%016Lx" t.data.(w)
  done

(* ------------------------------------------------------------------ *)
(* Two-level covers                                                    *)

type cube = { pos : int; neg : int }

let cube_tt n c =
  let acc = ref (const n true) in
  for i = 0 to n - 1 do
    if (c.pos lsr i) land 1 = 1 then acc := logand !acc (var n i)
    else if (c.neg lsr i) land 1 = 1 then acc := logand !acc (lognot (var n i))
  done;
  !acc

let of_cubes n cubes =
  List.fold_left (fun acc c -> logor acc (cube_tt n c)) (const n false) cubes

(* [isop_tables] below on the word of a table of at most 6 variables:
   the same recursion step for step, so the same cover. *)
let isop_word n w =
  let mask = small_mask n in
  let cof v b x = Int64.logand (word_cofactor v b x) mask in
  let nt x = Int64.logand (Int64.lognot x) mask in
  let rec go lower upper v =
    if Int64.equal lower 0L then ([], 0L)
    else if v = n then ([ { pos = 0; neg = 0 } ], mask)
    else if (not (word_depends_on lower v)) && not (word_depends_on upper v) then
      go lower upper (v + 1)
    else begin
      let l0 = cof v false lower and l1 = cof v true lower in
      let u0 = cof v false upper and u1 = cof v true upper in
      let cover0, tt0 = go (Int64.logand l0 (nt u1)) u0 (v + 1) in
      let cover1, tt1 = go (Int64.logand l1 (nt u0)) u1 (v + 1) in
      let lnew = Int64.logor (Int64.logand l0 (nt tt0)) (Int64.logand l1 (nt tt1)) in
      let cover2, tt2 = go lnew (Int64.logand u0 u1) (v + 1) in
      let bit = 1 lsl v in
      let cover =
        List.map (fun c -> { c with neg = c.neg lor bit }) cover0
        @ List.map (fun c -> { c with pos = c.pos lor bit }) cover1
        @ cover2
      in
      let x = Int64.logand var_pattern.(v) mask in
      (cover, Int64.logor tt2 (Int64.logor (Int64.logand (nt x) tt0) (Int64.logand x tt1)))
    end
  in
  let cover, tt = go w w 0 in
  assert (Int64.equal tt w);
  cover

(* Minato–Morreale ISOP: cover [lower] while staying inside [upper].
   Returns (cover, tt of cover). *)
let isop_tables t =
  let n = t.n in
  let rec go lower upper vars =
    if equal lower (const n false) then ([], const n false)
    else
      match vars with
      | [] ->
          (* lower is a nonzero constant on the remaining space: upper must be 1 *)
          ([ { pos = 0; neg = 0 } ], const n true)
      | v :: rest ->
          if not (depends_on lower v) && not (depends_on upper v) then go lower upper rest
          else begin
            let l0 = cofactor lower v false and l1 = cofactor lower v true in
            let u0 = cofactor upper v false and u1 = cofactor upper v true in
            (* Terms that must use literal v' / v respectively. *)
            let cover0, tt0 = go (logand l0 (lognot u1)) u0 rest in
            let cover1, tt1 = go (logand l1 (lognot u0)) u1 rest in
            let lnew =
              logor
                (logand l0 (lognot tt0))
                (logand l1 (lognot tt1))
            in
            let cover2, tt2 = go lnew (logand u0 u1) rest in
            let bit = 1 lsl v in
            let cover =
              List.map (fun c -> { c with neg = c.neg lor bit }) cover0
              @ List.map (fun c -> { c with pos = c.pos lor bit }) cover1
              @ cover2
            in
            let tt =
              logor tt2
                (logor
                   (logand (lognot (var n v)) tt0)
                   (logand (var n v) tt1))
            in
            (cover, tt)
          end
  in
  let vars = List.init n (fun i -> i) in
  let cover, tt = go t t vars in
  assert (equal tt t);
  cover

let isop t = if t.n <= 6 then isop_word t.n t.data.(0) else isop_tables t
