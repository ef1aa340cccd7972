type t =
  | Const of bool
  | Var of int
  | Not of t
  | And of t list
  | Or of t list
  | Xor of t list

let var i = Var i
let const b = Const b

let not_ = function
  | Const b -> Const (not b)
  | Not e -> e
  | (Var _ | And _ | Or _ | Xor _) as e -> Not e

let rec flatten kind acc = function
  | [] -> List.rev acc
  | e :: rest ->
      let acc =
        match (kind, e) with
        | `And, And children | `Or, Or children | `Xor, Xor children ->
            List.rev_append (flatten kind [] children) acc
        | (`And | `Or | `Xor), (Const _ | Var _ | Not _ | And _ | Or _ | Xor _) -> e :: acc
      in
      flatten kind acc rest

let and_ children =
  let children = flatten `And [] children in
  let children = List.filter (fun e -> e <> Const true) children in
  if List.mem (Const false) children then Const false
  else
    match children with [] -> Const true | [ e ] -> e | _ -> And children

let or_ children =
  let children = flatten `Or [] children in
  let children = List.filter (fun e -> e <> Const false) children in
  if List.mem (Const true) children then Const true
  else match children with [] -> Const false | [ e ] -> e | _ -> Or children

let xor children =
  let children = flatten `Xor [] children in
  (* Fold constants out of the XOR: each [Const true] flips the phase. *)
  let phase = ref false in
  let keep =
    List.filter
      (fun e ->
        match e with
        | Const b ->
            if b then phase := not !phase;
            false
        | Var _ | Not _ | And _ | Or _ | Xor _ -> true)
      children
  in
  let base =
    match keep with [] -> Const false | [ e ] -> e | _ -> Xor keep
  in
  if !phase then not_ base else base

let rec eval env = function
  | Const b -> b
  | Var i -> env i
  | Not e -> not (eval env e)
  | And children -> List.for_all (eval env) children
  | Or children -> List.exists (eval env) children
  | Xor children -> List.fold_left (fun acc e -> acc <> eval env e) false children

let to_tt n e =
  let module T = Truthtable in
  let rec go = function
    | Const b -> T.const n b
    | Var i -> T.var n i
    | Not e -> T.lognot (go e)
    | And children -> List.fold_left (fun acc e -> T.logand acc (go e)) (T.const n true) children
    | Or children -> List.fold_left (fun acc e -> T.logor acc (go e)) (T.const n false) children
    | Xor children -> List.fold_left (fun acc e -> T.logxor acc (go e)) (T.const n false) children
  in
  go e

let support e =
  let module S = Set.Make (Int) in
  let rec go acc = function
    | Const _ -> acc
    | Var i -> S.add i acc
    | Not e -> go acc e
    | And children | Or children | Xor children -> List.fold_left go acc children
  in
  S.elements (go S.empty e)

let rec size = function
  | Const _ | Var _ -> 0
  | Not e -> size e
  | And children | Or children | Xor children ->
      List.length children - 1 + List.fold_left (fun acc e -> acc + size e) 0 children

let rec depth = function
  | Const _ | Var _ -> 0
  | Not e -> depth e
  | And children | Or children | Xor children ->
      let k = List.length children in
      let levels = int_of_float (ceil (log (float_of_int k) /. log 2.0)) in
      levels + List.fold_left (fun acc e -> max acc (depth e)) 0 children

(* ------------------------------------------------------------------ *)
(* Factoring                                                           *)

let cube_expr (c : Truthtable.cube) =
  let lits = ref [] in
  for i = 15 downto 0 do
    if (c.pos lsr i) land 1 = 1 then lits := Var i :: !lits;
    if (c.neg lsr i) land 1 = 1 then lits := Not (Var i) :: !lits
  done;
  and_ !lits

let of_cubes cubes = or_ (List.map cube_expr cubes)

(* A literal is (variable, phase). Count occurrences across cubes. *)
let most_frequent_literal cubes =
  let counts = Hashtbl.create 16 in
  let bump key = Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)) in
  List.iter
    (fun (c : Truthtable.cube) ->
      for i = 0 to 15 do
        if (c.pos lsr i) land 1 = 1 then bump (i, true);
        if (c.neg lsr i) land 1 = 1 then bump (i, false)
      done)
    cubes;
  Hashtbl.fold
    (fun key count best ->
      match best with
      | Some (_, best_count) when best_count >= count -> best
      | Some _ | None -> Some (key, count))
    counts None

let cube_has (c : Truthtable.cube) (i, phase) =
  if phase then (c.pos lsr i) land 1 = 1 else (c.neg lsr i) land 1 = 1

let cube_remove (c : Truthtable.cube) (i, phase) : Truthtable.cube =
  if phase then { c with pos = c.pos land lnot (1 lsl i) }
  else { c with neg = c.neg land lnot (1 lsl i) }

let cube_contains (f : Truthtable.cube) (q : Truthtable.cube) =
  f.pos land q.pos = q.pos && f.neg land q.neg = q.neg

let cube_sub (f : Truthtable.cube) (q : Truthtable.cube) : Truthtable.cube =
  { pos = f.pos land lnot q.pos; neg = f.neg land lnot q.neg }

let cube_mul (a : Truthtable.cube) (b : Truthtable.cube) : Truthtable.cube =
  { pos = a.pos lor b.pos; neg = a.neg lor b.neg }

(* Weak (algebraic) division: F = Q * D + R with Q the divisor. *)
let algebraic_divide (divisor : Truthtable.cube list) (cubes : Truthtable.cube list) =
  match divisor with
  | [] -> ([], cubes)
  | first :: rest ->
      let quotient_for q =
        List.filter_map (fun f -> if cube_contains f q then Some (cube_sub f q) else None) cubes
      in
      let inter a b = List.filter (fun x -> List.mem x b) a in
      let d = List.fold_left (fun acc q -> inter acc (quotient_for q)) (quotient_for first) rest in
      if d = [] then ([], cubes)
      else begin
        let product =
          List.concat_map (fun q -> List.map (fun dd -> cube_mul q dd) d) divisor
        in
        let r = List.filter (fun f -> not (List.mem f product)) cubes in
        (d, r)
      end

(* Quick-factor: divide by the quotient of the most frequent literal, made
   cube-free, and recurse (Brayton's algebraic factoring family). *)
let rec factor cubes =
  match cubes with
  | [] -> Const false
  | [ c ] -> cube_expr c
  | _ -> (
      match most_frequent_literal cubes with
      | None -> Const true (* an empty cube is present: tautology *)
      | Some ((i, phase), count) ->
          if count <= 1 then of_cubes cubes
          else begin
            let lit = ((i, phase), if phase then Var i else Not (Var i)) in
            let with_lit, without = List.partition (fun c -> cube_has c (fst lit)) cubes in
            let q0 = List.map (fun c -> cube_remove c (fst lit)) with_lit in
            (* Make the quotient cube-free by stripping its common cube. *)
            let common =
              List.fold_left
                (fun (acc : Truthtable.cube) c ->
                  { Truthtable.pos = acc.pos land c.Truthtable.pos; neg = acc.neg land c.neg })
                { Truthtable.pos = -1; neg = -1 }
                q0
            in
            let q = List.map (fun c -> cube_sub c common) q0 in
            let d, r = if List.length q >= 2 then algebraic_divide q cubes else ([], []) in
            if List.length d >= 2 then or_ [ and_ [ factor q; factor d ]; factor r ]
            else begin
              let factored = and_ [ snd lit; factor q0 ] in
              if without = [] then factored else or_ [ factored; factor without ]
            end
          end)

(* Detect an XOR/XNOR over a partition of the support: f = a ^ b (^ c ...).
   We only attempt full-support parity detection, which is what the
   generalized gates need. *)
let parity_of_tt t =
  let module T = Truthtable in
  let sup = T.support t in
  match sup with
  | [] | [ _ ] -> None
  | _ :: _ :: _ ->
      let n = T.nvars t in
      let parity =
        List.fold_left (fun acc v -> T.logxor acc (T.var n v)) (T.const n false) sup
      in
      if T.equal t parity then Some (xor (List.map var sup))
      else if T.equal t (T.lognot parity) then Some (not_ (xor (List.map var sup)))
      else None

let factor_tt t =
  match parity_of_tt t with
  | Some e -> e
  | None ->
      let pos = factor (Truthtable.isop t) in
      let neg = not_ (factor (Truthtable.isop (Truthtable.lognot t))) in
      if size neg < size pos then neg else pos

(* ------------------------------------------------------------------ *)

let rec pp_prec names prec ppf e =
  let open Format in
  match e with
  | Const b -> pp_print_string ppf (if b then "1" else "0")
  | Var i -> pp_print_string ppf (names i)
  | Not e -> fprintf ppf "!%a" (pp_prec names 3) e
  | And children ->
      let body ppf () =
        pp_print_list
          ~pp_sep:(fun ppf () -> pp_print_string ppf " * ")
          (pp_prec names 2) ppf children
      in
      if prec > 2 then fprintf ppf "(%a)" body () else body ppf ()
  | Xor children ->
      let body ppf () =
        pp_print_list
          ~pp_sep:(fun ppf () -> pp_print_string ppf " ^ ")
          (pp_prec names 1) ppf children
      in
      if prec > 1 then fprintf ppf "(%a)" body () else body ppf ()
  | Or children ->
      let body ppf () =
        pp_print_list
          ~pp_sep:(fun ppf () -> pp_print_string ppf " + ")
          (pp_prec names 0) ppf children
      in
      if prec > 0 then fprintf ppf "(%a)" body () else body ppf ()

let pp_named names ppf e = pp_prec names 0 ppf e
let pp ppf e = pp_named (fun i -> Printf.sprintf "x%d" i) ppf e
