module G = Cell.Genlib
module T = Logic.Truthtable

type candidate = { gate : G.gate; perm : int array; inv_mask : int }

type t = {
  lib : G.t;
  tables : (int64, candidate list) Hashtbl.t array; (* indexed by variable count *)
  inv : G.gate;
  mutable entries : int;
}

let max_pins = 6

let library t = t.lib
let inverter t = t.inv
let size t = t.entries

(* All permutations of [0..k-1], in lexicographic order. *)
let permutations k =
  let rec go = function
    | [] -> [ [] ]
    | items ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) items in
            List.map (fun p -> x :: p) (go rest))
          items
  in
  List.map Array.of_list (go (List.init k Fun.id))

let candidate_area c = c.gate.G.area
let candidate_delay c = c.gate.G.delay

let insert t k key cand =
  let table = t.tables.(k) in
  let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
  (* Skip exact duplicates of the same gate with same binding cost. *)
  let dominated =
    List.exists
      (fun c ->
        candidate_area c <= candidate_area cand && candidate_delay c <= candidate_delay cand)
      existing
  in
  if not dominated then begin
    let merged =
      List.sort (fun a b -> compare (candidate_area a) (candidate_area b)) (cand :: existing)
    in
    (* Keep the three best by area plus the fastest. *)
    let by_area =
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      take 3 merged
    in
    let fastest =
      List.fold_left
        (fun acc c -> if candidate_delay c < candidate_delay acc then c else acc)
        (List.hd merged) merged
    in
    let kept = if List.memq fastest by_area then by_area else fastest :: by_area in
    t.entries <- t.entries + (List.length kept - List.length existing);
    Hashtbl.replace table key kept
  end

(* Variants reach [insert] in a fixed order: gates in library order,
   permutations lexicographic, [inv_mask] ascending. [insert] keeps the
   first of equally good candidates, so this order decides each key's
   list. *)
let build lib =
  Runtime.Telemetry.with_span "techmap.matchlib.build" @@ fun () ->
  let t =
    {
      lib;
      tables = Array.init (max_pins + 1) (fun _ -> Hashtbl.create 4096);
      inv = G.find_gate lib "INV";
      entries = 0;
    }
  in
  let perms = Array.init (max_pins + 1) (fun k -> lazy (permutations k)) in
  List.iter
    (fun (gate : G.gate) ->
      let k = gate.G.cell.Cell.Cells.pins in
      let base = Cell.Cells.tt gate.G.cell in
      (* Only functions with full support are indexed (cut functions are
         shrunk to their support before lookup); negating or renaming
         inputs keeps the support size, so this holds for all variants
         of a gate or for none. *)
      if k >= 1 && k <= max_pins && List.length (T.support base) = k then begin
        let base = T.to_int64 base in
        let seen = Hashtbl.create 64 in
        let variants = Array.make (1 lsl k) 0L in
        List.iter
          (fun perm ->
            let p = T.word_permute base perm in
            (* Re-inserting a (gate, key) pair is a no-op, so a variant
               already met for this gate is skipped, and so is the whole
               batch of a [p] already met: it repeats an earlier batch.
               Pin [j] complemented flips input [perm.(j)] of [p]. *)
            if not (Hashtbl.mem seen p) then begin
              variants.(0) <- p;
              for j = 0 to k - 1 do
                let half = 1 lsl j in
                for inv_mask = half to (2 * half) - 1 do
                  variants.(inv_mask) <- T.word_flip variants.(inv_mask - half) perm.(j)
                done
              done;
              Array.iteri
                (fun inv_mask key ->
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.add seen key ();
                    insert t k key { gate; perm; inv_mask }
                  end)
                variants
            end)
          (Lazy.force perms.(k))
      end)
    lib.G.gates;
  t

let lookup t tt =
  let k = T.nvars tt in
  if k > max_pins then []
  else
    Option.value ~default:[] (Hashtbl.find_opt t.tables.(k) (T.to_int64 tt))
