module T = Logic.Truthtable

type cut = { leaves : int array; fn : T.t }

(* A node as a function of its own trivial cut. *)
let identity = T.var 1 0

(* Leaf signatures: bit [leaf mod 63] per leaf. A subset sets no bit
   outside its superset's, and a union with more than [k] bits set has
   more than [k] leaves. *)
let leaf_bit leaf = 1 lsl (leaf mod 63)

let rec at_most_bits k s = s = 0 || (k > 0 && at_most_bits (k - 1) (s land (s - 1)))

(* The helpers below take every value as an argument rather than close
   over it, so that the per-candidate calls allocate nothing. *)

(* Merge the sorted leaf arrays [a] (from [i]) and [b] (from [j]) into
   [buf] from [at]: the end of the union, or -1 when the union would
   pass [limit]. *)
let rec merge buf at limit a i b j =
  let la = Array.length a and lb = Array.length b in
  if i = la && j = lb then at
  else if at = limit then -1
  else begin
    let x = if j = lb then a.(i) else if i = la then b.(j) else min a.(i) b.(j) in
    buf.(at) <- x;
    merge buf (at + 1) limit a
      (if i < la && a.(i) = x then i + 1 else i)
      b
      (if j < lb && b.(j) = x then j + 1 else j)
  end

(* Slots [a] and [b] of [buf] (from [a] and [b], [n] leaves left each),
   compared lexicographically. *)
let rec compare_slots buf a b n =
  if n = 0 then 0
  else
    let x = buf.(a) and y = buf.(b) in
    if x <> y then Int.compare x y else compare_slots buf (a + 1) (b + 1) (n - 1)

(* Whether the [na] leaves of [buf] from [a] are among the [nb] from [b]. *)
let rec subset_slots buf a na b nb =
  na = 0
  || nb > 0
     &&
     let x = buf.(a) and y = buf.(b) in
     if x = y then subset_slots buf (a + 1) (na - 1) (b + 1) (nb - 1)
     else x > y && subset_slots buf a na (b + 1) (nb - 1)

(* The function of literal [lit] over [leaves], from a cut of its node
   whose leaves are among [leaves]. *)
let lit_fn lit (c : cut) leaves =
  let pos = Array.make (Array.length c.leaves) 0 in
  let j = ref 0 in
  Array.iteri
    (fun i leaf ->
      while leaves.(!j) <> leaf do
        incr j
      done;
      pos.(i) <- !j)
    c.leaves;
  let f = T.stretch c.fn (Array.length leaves) pos in
  if Aig.is_complemented lit then T.lognot f else f

module Functions = Hashtbl.Make (T)

let enumerate t ~k ~max_cuts =
  if k < 1 || k > 16 then invalid_arg "Cut.enumerate: k outside 1..16";
  if max_cuts < 1 then invalid_arg "Cut.enumerate: max_cuts < 1";
  let n = Aig.num_nodes t in
  let cuts = Array.make n [||] and sigs = Array.make n [||] in
  (* Scratch for one node's merge candidates: candidate [c] holds
     [size.(c)] leaves in [buf] from [c * k], its signature and the
     indices of the two fanin cuts it merges. *)
  let room = max_cuts * max_cuts in
  let buf = Array.make (room * k) 0 in
  let size = Array.make room 0 and sg = Array.make room 0 in
  let src0 = Array.make room 0 and src1 = Array.make room 0 in
  let order = Array.make room 0 and bucket = Array.make (k + 2) 0 in
  let next = Array.make (k + 1) 0 and kept = Array.make max_cuts 0 in
  (* Cuts share one table per distinct function: few functions occur,
     and a table per cut would double the memory the cuts hold. *)
  let functions = Functions.create 1024 in
  let share f =
    match Functions.find_opt functions f with
    | Some g -> g
    | None ->
        Functions.add functions f f;
        f
  in
  for node = 0 to n - 1 do
    let trivial = { leaves = [| node |]; fn = identity } in
    if not (Aig.is_and t node) then begin
      cuts.(node) <- [| trivial |];
      sigs.(node) <- [| leaf_bit node |]
    end
    else begin
      let l0 = Aig.fanin0 t node and l1 = Aig.fanin1 t node in
      let c0 = cuts.(Aig.node_of_lit l0) and c1 = cuts.(Aig.node_of_lit l1) in
      let s0 = sigs.(Aig.node_of_lit l0) and s1 = sigs.(Aig.node_of_lit l1) in
      let count = ref 0 in
      for i = 0 to Array.length c0 - 1 do
        for j = 0 to Array.length c1 - 1 do
          let s = s0.(i) lor s1.(j) in
          if at_most_bits k s then begin
            let c = !count in
            let m = merge buf (c * k) ((c + 1) * k) c0.(i).leaves 0 c1.(j).leaves 0 in
            if m >= 0 then begin
              size.(c) <- m - (c * k);
              sg.(c) <- s;
              src0.(c) <- i;
              src1.(c) <- j;
              incr count
            end
          end
        done
      done;
      (* Bucket the candidates by size: bucket [s] is
         [order.(bucket.(s)) .. order.(bucket.(s + 1) - 1)]. *)
      Array.fill bucket 0 (k + 2) 0;
      for c = 0 to !count - 1 do
        bucket.(size.(c) + 1) <- bucket.(size.(c) + 1) + 1
      done;
      for s = 1 to k + 1 do
        bucket.(s) <- bucket.(s) + bucket.(s - 1)
      done;
      Array.blit bucket 0 next 0 (k + 1);
      for c = 0 to !count - 1 do
        order.(next.(size.(c))) <- c;
        next.(size.(c)) <- next.(size.(c)) + 1
      done;
      (* Walk the candidates in cut order (size, then leaves), skipping
         repeats and supersets of a kept cut. A proper subset sorts
         earlier, so when a cut is reached every irredundant cut that
         could dominate it is already kept. *)
      let limit = max_cuts - 1 and nkept = ref 0 in
      let s = ref 1 in
      while !s <= k && !nkept < limit do
        let lo = bucket.(!s) and hi = bucket.(!s + 1) in
        for a = lo + 1 to hi - 1 do
          let c = order.(a) in
          let b = ref (a - 1) in
          while !b >= lo && compare_slots buf (order.(!b) * k) (c * k) !s > 0 do
            order.(!b + 1) <- order.(!b);
            decr b
          done;
          order.(!b + 1) <- c
        done;
        let a = ref lo in
        while !a < hi && !nkept < limit do
          let c = order.(!a) in
          let repeat = !a > lo && compare_slots buf (order.(!a - 1) * k) (c * k) !s = 0 in
          let dominated = ref false and q = ref 0 in
          while (not !dominated) && !q < !nkept do
            let d = kept.(!q) in
            dominated :=
              size.(d) < !s
              && sg.(d) land lnot sg.(c) = 0
              && subset_slots buf (d * k) size.(d) (c * k) !s;
            incr q
          done;
          if not (repeat || !dominated) then begin
            kept.(!nkept) <- c;
            incr nkept
          end;
          incr a
        done;
        incr s
      done;
      let out = Array.make (!nkept + 1) trivial in
      let out_sigs = Array.make (!nkept + 1) (leaf_bit node) in
      for r = 0 to !nkept - 1 do
        let c = kept.(r) in
        let leaves = Array.sub buf (c * k) size.(c) in
        let fn = T.logand (lit_fn l0 c0.(src0.(c)) leaves) (lit_fn l1 c1.(src1.(c)) leaves) in
        out.(r) <- { leaves; fn = share fn };
        out_sigs.(r) <- sg.(c)
      done;
      cuts.(node) <- out;
      sigs.(node) <- out_sigs
    end
  done;
  cuts

let mffc_size t fanouts node cut =
  let leaves = cut.leaves in
  let inside nd =
    Aig.is_and t nd
    &&
    let rec not_leaf i = i = Array.length leaves || (leaves.(i) <> nd && not_leaf (i + 1)) in
    not_leaf 0
  in
  (* Dereference the cone from the root, counting the nodes whose last
     reference goes (references from outside the root's cone keep a node
     alive), then put every reference back. *)
  let rec deref nd =
    let release lit =
      let child = Aig.node_of_lit lit in
      if inside child then begin
        fanouts.(child) <- fanouts.(child) - 1;
        if fanouts.(child) = 0 then deref child else 0
      end
      else 0
    in
    1 + release (Aig.fanin0 t nd) + release (Aig.fanin1 t nd)
  in
  let rec reref nd =
    let restore lit =
      let child = Aig.node_of_lit lit in
      if inside child then begin
        fanouts.(child) <- fanouts.(child) + 1;
        if fanouts.(child) = 1 then reref child
      end
    in
    restore (Aig.fanin0 t nd);
    restore (Aig.fanin1 t nd)
  in
  if not (inside node) then 0
  else begin
    let count = deref node in
    reref node;
    count
  end
