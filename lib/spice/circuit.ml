type node = int

type element =
  | Resistor of node * node * float
  | Transistor of Device.kind * node * node * node * node (* d g s pg *)

type t = {
  names : (string, node) Hashtbl.t;
  mutable next : node;
  mutable elements : element list;
  mutable sources : (node * float) list;
}

let ground = 0

let create () =
  let names = Hashtbl.create 16 in
  Hashtbl.replace names "0" ground;
  Hashtbl.replace names "gnd" ground;
  { names; next = 1; elements = []; sources = [] }

let node t name =
  match Hashtbl.find_opt t.names name with
  | Some n -> n
  | None ->
      let n = t.next in
      t.next <- n + 1;
      Hashtbl.replace t.names name n;
      n

let stage = Runtime.Cnt_error.Spice

let add_vsource t n v =
  if n = ground then
    Runtime.Cnt_error.failf stage Runtime.Cnt_error.Validation_error
      "voltage source attached to the ground node";
  if not (Float.is_finite v) then
    Runtime.Cnt_error.failf
      ~context:[ ("value", Printf.sprintf "%h" v) ]
      stage Runtime.Cnt_error.Non_finite "voltage source value must be finite";
  t.sources <- (n, v) :: t.sources

let add_resistor t a b r =
  if not (Float.is_finite r && r > 0.0) then
    Runtime.Cnt_error.failf
      ~context:[ ("value", Printf.sprintf "%h" r) ]
      stage Runtime.Cnt_error.Validation_error
      "resistance must be finite and > 0";
  t.elements <- Resistor (a, b, r) :: t.elements

let add_transistor t kind ~d ~g ~s ?pg () =
  let pg =
    match (kind, pg) with
    | Device.Ambipolar _, Some p -> p
    | Device.Ambipolar _, None -> invalid_arg "ambipolar device needs a polarity gate"
    | (Device.Nmos _ | Device.Pmos _), _ -> ground
  in
  t.elements <- Transistor (kind, d, g, s, pg) :: t.elements

let num_nodes t = t.next

type solution = float array

let node_voltage sol n = sol.(n)

let gmin = 1.0e-12

(* Current leaving each node through the passive/active elements. *)
let injections t (v : float array) =
  let out = Array.make (Array.length v) 0.0 in
  List.iter
    (fun el ->
      match el with
      | Resistor (a, b, r) ->
          let i = (v.(a) -. v.(b)) /. r in
          out.(a) <- out.(a) +. i;
          out.(b) <- out.(b) -. i
      | Transistor (kind, d, g, s, pg) ->
          let i = Device.ids kind ~vg:v.(g) ~vd:v.(d) ~vs:v.(s) ~vpg:v.(pg) in
          out.(d) <- out.(d) +. i;
          out.(s) <- out.(s) -. i)
    t.elements;
  (* gmin to ground keeps floating nodes well-defined. *)
  Array.iteri (fun n vn -> if n <> ground then out.(n) <- out.(n) +. (gmin *. vn)) out;
  out

(* Dense Gaussian elimination with partial pivoting; solves in place. *)
let gauss_solve a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if abs_float a.(row).(col) > abs_float a.(!pivot).(col) then pivot := row
    done;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    let p = a.(col).(col) in
    if abs_float p < 1.0e-30 then
      Runtime.Cnt_error.failf
        ~context:[ ("pivot", Printf.sprintf "%.3g" p); ("column", string_of_int col) ]
        stage Runtime.Cnt_error.Singular_matrix
        "Circuit.solve: singular Jacobian";
    for row = col + 1 to n - 1 do
      let f = a.(row).(col) /. p in
      if f <> 0.0 then begin
        for k = col to n - 1 do
          a.(row).(k) <- a.(row).(k) -. (f *. a.(col).(k))
        done;
        b.(row) <- b.(row) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. a.(row).(row)
  done;
  x

let solve ?(max_iter = 200) ?(tol = 1.0e-11) t =
  let n = t.next in
  let v = Array.make n 0.0 in
  let fixed = Array.make n false in
  fixed.(ground) <- true;
  List.iter
    (fun (nd, value) ->
      v.(nd) <- value;
      fixed.(nd) <- true)
    t.sources;
  (* Unknown nodes get a mid-rail initial guess to help convergence. *)
  let vdd_guess =
    List.fold_left (fun acc (_, value) -> max acc value) 0.0 t.sources
  in
  Array.iteri (fun i f -> if not f then v.(i) <- vdd_guess /. 2.0) fixed;
  let unknowns = ref [] in
  for i = n - 1 downto 0 do
    if not fixed.(i) then unknowns := i :: !unknowns
  done;
  let unknowns = Array.of_list !unknowns in
  let m = Array.length unknowns in
  if m = 0 then v
  else begin
    let converged = ref false in
    let iter = ref 0 in
    let last_worst = ref infinity in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let f0 = injections t v in
      let residual = Array.map (fun nd -> f0.(nd)) unknowns in
      (* Numeric Jacobian by forward differences. *)
      let jac = Array.make_matrix m m 0.0 in
      let dv = 1.0e-6 in
      Array.iteri
        (fun j nd ->
          let saved = v.(nd) in
          v.(nd) <- saved +. dv;
          let f1 = injections t v in
          v.(nd) <- saved;
          Array.iteri
            (fun i nd_i -> jac.(i).(j) <- (f1.(nd_i) -. f0.(nd_i)) /. dv)
            unknowns)
        unknowns;
      let delta = gauss_solve jac (Array.map (fun r -> -.r) residual) in
      (* Damped update, clamped to the rail range for robustness. *)
      let max_step = 0.2 in
      let worst = ref 0.0 in
      Array.iteri
        (fun j nd ->
          let d = delta.(j) in
          let d = if d > max_step then max_step else if d < -.max_step then -.max_step else d in
          v.(nd) <- v.(nd) +. d;
          if abs_float d > !worst then worst := abs_float d)
        unknowns;
      if not (Float.is_finite !worst) then
        Runtime.Cnt_error.failf
          ~context:[ ("iteration", string_of_int !iter) ]
          stage Runtime.Cnt_error.Non_finite
          "Circuit.solve: non-finite Newton update";
      last_worst := !worst;
      if !worst < tol then converged := true
    done;
    if not !converged then
      Runtime.Cnt_error.failf
        ~context:
          [
            ("iterations", string_of_int !iter);
            ("residual", Printf.sprintf "%.3g" !last_worst);
          ]
        stage Runtime.Cnt_error.Convergence_failure
        "Circuit.solve: Newton did not converge";
    v
  end

let validate t =
  let open Runtime.Validate in
  let element_checks =
    List.concat_map
      (fun el ->
        match el with
        | Resistor (_, _, r) ->
            [ Result.map (fun _ -> ()) (positive ~stage ~what:"resistance" r) ]
        | Transistor (kind, _, _, _, _) ->
            [ Result.map (fun _ -> ()) (Tech.validate (Device.tech kind)) ])
      t.elements
  in
  let source_checks =
    List.map
      (fun (_, value) ->
        Result.map (fun _ -> ()) (finite ~stage ~what:"source voltage" value))
      t.sources
  in
  all (source_checks @ element_checks)

let source_current t sol n =
  let inj = injections t sol in
  inj.(n)

let node_currents t v = injections t v
let is_source t n = n = ground || List.mem_assoc n t.sources
let source_value t n = if n = ground then 0.0 else List.assoc n t.sources
