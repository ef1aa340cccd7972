(* In-process half of the benchmark; run.py drives it.

     perfbench.exe setup  [--libfile F]...
         Register the families and build every matchlib once (cold on a
         fresh working directory): the set-up a first run pays.
     perfbench.exe table1 --seed N --patterns P --out FILE
         Experiments.Exp_table1.run, untraced, timed around the call.
     perfbench.exe pool --dir DIR --out FILE
         Write the serve workload's netlist pool as BLIF files.
     perfbench.exe replay --workload table1|campaign|serve --seed N
         --patterns P [--libfile F]... [--requests FILE]
         --out FILE --trace FILE
         Replay the workload's call order in-process with one span per
         call into a layer's public function, and write the per-layer
         sums, the time of each operation and the spans.

     perfbench.exe probe
         Print the time of a fixed two-domain CPU probe.

   Every result goes to --out as one JSON object; run.py checks it. *)

module A = Aigs.Aig
module B = Logic.Bitvec
module E = Techmap.Estimate
module G = Cell.Genlib
module M = Techmap.Mapped

let span = Tracer.span

(* ------------------------------------------------------------------ *)
(* Arguments and output                                                *)

let args = List.tl (Array.to_list Sys.argv)

let opt name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let opt_all name =
  let rec find = function
    | k :: v :: rest when k = name -> v :: find rest
    | _ :: rest -> find rest
    | [] -> []
  in
  find args

let req name =
  match opt name with
  | Some v -> v
  | None ->
      Printf.eprintf "perfbench: missing %s\n" name;
      exit 2

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let load_libfiles () =
  List.iter
    (fun path ->
      match Cell.Libfile.load path with
      | Ok _ -> ()
      | Error e -> Runtime.Cnt_error.raise_error e)
    (opt_all "--libfile")

let report_json (r : E.report) =
  obj
    [
      ("gates", string_of_int r.E.gates);
      ("delay_s", num r.E.delay);
      ("dynamic_W", num r.E.dynamic);
      ("static_W", num r.E.static);
      ("total_W", num r.E.total);
      ("edp_Js", num r.E.edp);
    ]

(* One Table 1 row: circuit name and the report per library. *)
let row_json name results =
  obj
    [
      ("circuit", Printf.sprintf "%S" name);
      ("results", obj (List.map (fun (lib, r) -> (lib, report_json r)) results));
    ]

(* ------------------------------------------------------------------ *)
(* Untraced end-to-end entry point                                     *)

let table1 () =
  let seed = Int64.of_string (req "--seed") in
  let patterns = int_of_string (req "--patterns") in
  let t0 = Unix.gettimeofday () in
  let summary = Experiments.Exp_table1.run ~patterns ~seed ~verify:true () in
  let wall = Unix.gettimeofday () -. t0 in
  write_file (req "--out")
    (obj
       [
         ("wall_s", num wall);
         ("domains", string_of_int (Runtime.Dpool.default_domains ()));
         ( "rows",
           arr
             (List.map
                (fun (r : Experiments.Exp_table1.row) -> row_json r.name r.results)
                summary.Experiments.Exp_table1.rows) );
         ( "scalars",
           obj
             (List.map
                (fun (k, v) -> (k, num v))
                (Experiments.Exp_table1.scalars summary)) );
       ])

let build_matchlibs () =
  List.iter (fun lib -> ignore (Techmap.Matchlib.build lib)) (G.libraries ())

let setup () =
  load_libfiles ();
  build_matchlibs ()

(* The serve pool: the small suite plus random logic of 100-650 gates.
   It is the same for every workload seed, so that every seed asks for
   the same work; the seed orders the requests. *)
let pool () =
  let dir = req "--dir" in
  let randlogic g =
    {
      Circuits.Suite.name = Printf.sprintf "rand%d" g;
      description = "random logic";
      generate =
        (fun () ->
          Circuits.Randlogic.generate ~inputs:(max 8 (g / 8))
            ~gates:g ~outputs:(max 4 (g / 16)) ~xor_fraction:0.15
            ~seed:(Int64.of_int g) ());
    }
  in
  let entries =
    Circuits.Suite.small
    @ List.map randlogic [ 100; 210; 320; 430; 540; 650 ]
  in
  let files =
    List.mapi
      (fun i (e : Circuits.Suite.entry) ->
        let file = Filename.concat dir (Printf.sprintf "%02d-%s.blif" i e.name) in
        write_file file (Nets.Blif.write_string ~model:e.name (e.generate ()));
        obj [ ("name", Printf.sprintf "%S" e.name); ("file", Printf.sprintf "%S" file) ])
      entries
  in
  write_file (req "--out") (arr files)

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)

(* Techmap.Estimate.run, call for call, with a span around each
   component. The per-net probability closure is spanned per call, as
   static_components calls it once per cell pin. *)
let estimate ?domains ~patterns ~seed (m : M.t) =
  span "techmap.estimate" (fun () ->
      let tech = m.M.lib.G.tech in
      let vdd = tech.Spice.Tech.vdd in
      let f = Spice.Tech.frequency in
      let stimulus =
        span "nets.stimulus" (fun () ->
            Nets.Sim.random_stimulus ?domains ~seed
              ~inputs:(Array.length m.M.pi_nets) ~patterns ())
      in
      let values = span "techmap.simulate" (fun () -> M.simulate ?domains m stimulus) in
      let toggle net =
        if patterns <= 1 then 0.0
        else float_of_int (B.transitions values.(net)) /. float_of_int (patterns - 1)
      in
      let prob net =
        span "logic.toggle_prob" (fun () ->
            float_of_int (B.popcount values.(net)) /. float_of_int patterns)
      in
      let loads = M.net_loads ~wire_cap_per_fanout:0.0 m in
      let dynamic =
        span "logic.toggle_prob" (fun () ->
            let d = ref 0.0 in
            for net = 0 to m.M.num_nets - 1 do
              d := !d +. (toggle net *. loads.(net) *. f *. vdd *. vdd)
            done;
            !d)
      in
      let static, gate_leak =
        span "techmap.characterize" (fun () -> E.static_components m ~probs:prob)
      in
      let short_circuit = Spice.Tech.short_circuit_fraction *. dynamic in
      let total = dynamic +. short_circuit +. static +. gate_leak in
      let delay = M.delay m in
      {
        E.gates = M.num_gates m;
        area = M.area m;
        delay;
        dynamic;
        short_circuit;
        static;
        gate_leak;
        total;
        edp = Power.Powermodel.edp ~total_power:total ~delay ();
      })

let resyn_keys : (string, unit) Hashtbl.t = Hashtbl.create 64
let nodes_out = ref 0

let resyn2rs ~key aig =
  Hashtbl.replace resyn_keys key ();
  let opt = span "aigs.resyn2rs" (fun () -> Aigs.Opt.resyn2rs aig) in
  nodes_out := !nodes_out + A.num_ands opt;
  opt

let matchlib lib =
  span "techmap.matchlib_build" (fun () -> Techmap.Matchlib.build lib)

let map_checked ml opt =
  match span "techmap.map" (fun () -> Techmap.Mapper.map_checked ml opt) with
  | Ok m -> m
  | Error e -> Runtime.Cnt_error.raise_error e

(* Mapped netlists and pattern counts, kept to count cube-words after
   the traced wall (the count is not work the program does). *)
let simulated : (M.t * int) list ref = ref []

let estimate_kept ?domains ~patterns ~seed m =
  simulated := (m, patterns) :: !simulated;
  estimate ?domains ~patterns ~seed m

(* An operation of a replay, which returns its items of output, and for
   Table 1 its untraced twin: the program's own entry point on the same
   input. *)
type op = { replayed : unit -> string list; twin : (unit -> string list) option }

let only replayed = { replayed; twin = None }

(* Experiments.Exp_table1.run's call order: the matchlib builds, then one
   operation per circuit, whose twin is Exp_table1.run on that circuit
   alone. *)
let table1_ops ~patterns ~seed =
  let matchlibs = ref [] in
  only (fun () ->
      matchlibs := List.map (fun lib -> (lib, matchlib lib)) (G.libraries ());
      [])
  :: List.map
       (fun (entry : Circuits.Suite.entry) ->
         let replayed () =
           let nl = span "circuits.generate" entry.generate in
           span "nets.check" (fun () -> ignore (Nets.Check.check_exn nl));
           let aig = span "aigs.of_netlist" (fun () -> A.of_netlist nl) in
           let opt = resyn2rs ~key:entry.name aig in
           let results =
             List.map
               (fun ((lib : G.t), ml) ->
                 let mapped = span "techmap.map" (fun () -> Techmap.Mapper.map ml opt) in
                 if not (span "techmap.verify" (fun () -> M.check mapped nl ~patterns:512 ~seed:99L))
                 then failwith (Printf.sprintf "%s/%s fails Mapped.check" entry.name lib.G.name);
                 (lib.G.name, estimate_kept ~patterns ~seed mapped))
               !matchlibs
           in
           [ row_json entry.name results ]
         in
         let twin () =
           let s = Experiments.Exp_table1.run ~patterns ~seed ~circuits:[ entry ] ~verify:true () in
           List.map
             (fun (r : Experiments.Exp_table1.row) -> row_json r.name r.results)
             s.Experiments.Exp_table1.rows
         in
         { replayed; twin = Some twin })
       Circuits.Suite.all

(* Experiments.Campaign.execute, one operation per (circuit, family)
   shard in enqueue order. *)
let campaign_ops ~patterns ~seed =
  List.concat_map
    (fun (entry : Circuits.Suite.entry) ->
      List.map
        (fun (lib : G.t) ->
          only @@ fun () ->
          let nl = span "circuits.generate" entry.generate in
          span "nets.check" (fun () -> ignore (Nets.Check.check_exn nl));
          let aig = span "aigs.of_netlist" (fun () -> A.of_netlist nl) in
          let opt = resyn2rs ~key:entry.name aig in
          let ml = matchlib lib in
          let mapped = map_checked ml opt in
          [
            obj
              [
                ("circuit", Printf.sprintf "%S" entry.name);
                ("family", Printf.sprintf "%S" lib.G.name);
                ("report", report_json (estimate_kept ~patterns ~seed mapped));
              ];
          ])
        (G.libraries ()))
    Circuits.Suite.all

let ok_or_raise = function Ok v -> v | Error e -> Runtime.Cnt_error.raise_error e

(* One operation per serve request: the daemon's admission parse and
   check, then Techmap.Estimate.run_blif in the worker. Request lines
   read "<blif file> <family> <stimulus seed>". *)
let serve_ops ~patterns =
  let lines =
    In_channel.with_open_text (req "--requests") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let texts = Hashtbl.create 16 in
  let text file =
    match Hashtbl.find_opt texts file with
    | Some t -> t
    | None ->
        let t = In_channel.with_open_bin file In_channel.input_all in
        Hashtbl.replace texts file t;
        t
  in
  List.map
    (fun line ->
      only @@ fun () ->
      match String.split_on_char ' ' line with
      | [ file; family; stim ] ->
          let blif = text file in
          let lib = Option.get (G.find_library family) in
          let parse () = span "nets.blif_parse" (fun () -> ok_or_raise (Nets.Blif.parse_string blif)) in
          let check nl = span "nets.check" (fun () -> ignore (ok_or_raise (Nets.Check.check nl))) in
          check (parse ());
          let nl = parse () in
          check nl;
          let aig = span "aigs.of_netlist" (fun () -> A.of_netlist nl) in
          let opt = resyn2rs ~key:file aig in
          let ml = matchlib lib in
          let mapped = map_checked ml opt in
          let r = estimate_kept ~domains:1 ~patterns ~seed:(Int64.of_string stim) mapped in
          [ report_json r ]
      | _ -> failwith ("bad request line: " ^ line))
    lines

(* Cube-words the Mapped.simulate kernel evaluates: ISOP cubes per cell
   times 64-pattern words. *)
let cube_words () =
  let covers = Hashtbl.create 64 in
  let cubes (g : G.gate) =
    let name = g.G.cell.Cell.Cells.name in
    match Hashtbl.find_opt covers name with
    | Some n -> n
    | None ->
        let n = List.length (Logic.Truthtable.isop (Cell.Cells.tt g.G.cell)) in
        Hashtbl.replace covers name n;
        n
  in
  List.fold_left
    (fun acc ((m : M.t), patterns) ->
      let per_word =
        Array.fold_left (fun a (c : M.cell) -> a + cubes c.M.gate) 0 m.M.cells
      in
      acc +. (float_of_int per_word *. float_of_int (max 1 ((patterns + 63) / 64))))
    0.0 !simulated

(* Estimate.run must still compute what the replay computes: compare
   both on one mapping, after the traced wall. *)
let fidelity () =
  match !simulated with
  | [] -> ()
  | (m, _) :: _ ->
      let a = E.run ~domains:1 ~patterns:4096 ~seed:5L m in
      let b = estimate ~domains:1 ~patterns:4096 ~seed:5L m in
      if a <> b then failwith "replayed estimate differs from Techmap.Estimate.run"

(* Runs the workload's operations, timing each (and its twin, untraced),
   and writes the raw per-layer sums; run.py turns them into metrics. *)
let replay () =
  load_libfiles ();
  let workload = req "--workload" in
  let seed = Int64.of_string (req "--seed") in
  let patterns = int_of_string (req "--patterns") in
  let ops =
    match workload with
    | "table1" -> table1_ops ~patterns ~seed
    | "campaign" -> campaign_ops ~patterns ~seed
    | "serve" ->
        (* The daemon's warm-up requests leave every matchlib cached. *)
        build_matchlibs ();
        serve_ops ~patterns
    | w -> failwith ("unknown workload " ^ w)
  in
  let timed f =
    let t = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t, v)
  in
  let traced f =
    Tracer.on := true;
    let r = timed f in
    Tracer.on := false;
    r
  in
  (* The twin runs first on even operations and second on odd ones, so
     that neither side always finds the other's warm caches. *)
  let results =
    List.mapi
      (fun i op ->
        match op.twin with
        | None -> (traced op.replayed, None)
        | Some twin when i mod 2 = 0 ->
            let w = timed twin in
            (traced op.replayed, Some w)
        | Some twin ->
            let r = traced op.replayed in
            (r, Some (timed twin)))
      ops
  in
  let wall = List.fold_left (fun a ((dt, _), _) -> a +. dt) 0.0 results in
  fidelity ();
  let layers =
    Hashtbl.fold
      (fun name (l : Tracer.layer) acc ->
        (name, arr [ num l.Tracer.total_s; num l.Tracer.self_s; string_of_int l.Tracer.calls ])
        :: acc)
      (Tracer.layers ()) []
  in
  Tracer.write (req "--trace");
  write_file (req "--out")
    (obj
       [
         ("wall_s", num wall);
         ("top_level_s", num (Tracer.top_level_s ()));
         ("recorder_s", num !Tracer.cost);
         ("op_s", arr (List.map (fun ((dt, _), _) -> num dt) results));
         ( "twin_s",
           arr
             (List.map
                (fun (_, w) -> match w with Some (dt, _) -> num dt | None -> "null")
                results) );
         ("domains", string_of_int (Runtime.Dpool.default_domains ()));
         ( "resyn_keys",
           arr (Hashtbl.fold (fun k () acc -> Printf.sprintf "%S" k :: acc) resyn_keys []) );
         ("nodes_out", string_of_int !nodes_out);
         ( "cells",
           string_of_int (List.fold_left (fun a (m, _) -> a + M.num_gates m) 0 !simulated) );
         ("cube_words", num (cube_words ()));
         ("layers", obj (List.sort compare layers));
         ("items", arr (List.concat_map (fun ((_, items), _) -> items) results));
         ( "twin_items",
           arr (List.concat_map (fun (_, w) -> Option.fold ~none:[] ~some:snd w) results) );
       ])

(* Fixed work on two domains at once, as the workloads load the host:
   integer arithmetic plus hashtable allocation, independent of the
   program's code, so its time moves only with the host. *)
let probe () =
  let work () =
    let h = Hashtbl.create 4096 and acc = ref 0 in
    for i = 0 to 12_000_000 do
      acc := ((!acc * 31) + i) land 0xFFFFFFFF;
      if i land 7 = 0 then Hashtbl.replace h (i land 0xFFFF) (float_of_int i)
    done;
    !acc + Hashtbl.length h
  in
  let t0 = Unix.gettimeofday () in
  let other = Domain.spawn work in
  let a = work () in
  let b = Domain.join other in
  ignore (Sys.opaque_identity (a + b));
  Printf.printf "%.6f\n" (Unix.gettimeofday () -. t0)

let () =
  match args with
  | "probe" :: _ -> probe ()
  | "setup" :: _ -> setup ()
  | "table1" :: _ -> table1 ()
  | "pool" :: _ -> pool ()
  | "replay" :: _ -> replay ()
  | _ ->
      prerr_endline "usage: perfbench.exe probe|setup|table1|pool|replay [options]";
      exit 2
