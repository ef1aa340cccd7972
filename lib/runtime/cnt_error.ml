type stage =
  | Logic
  | Netlist
  | Aig
  | Techmap
  | Spice
  | Power
  | Experiment
  | Library
  | Cli

type code =
  | Parse_error
  | Validation_error
  | Non_finite
  | Convergence_failure
  | Singular_matrix
  | Combinational_loop
  | Undriven_net
  | Multiply_driven_net
  | Unmapped_node
  | Missing_signal
  | Mismatch
  | Unsupported
  | Io_error
  | Worker_timeout
  | Worker_killed
  | Regression
  | Overloaded
  | Shard_quarantined
  | Internal

type t = {
  stage : stage;
  code : code;
  message : string;
  context : (string * string) list;
}

exception Error of t

let make ?(context = []) stage code message = { stage; code; message; context }

let makef ?context stage code fmt =
  Format.kasprintf (fun message -> make ?context stage code message) fmt

let error ?context stage code fmt =
  Format.kasprintf
    (fun message -> Result.Error (make ?context stage code message))
    fmt

let raise_error e = raise (Error e)

let failf ?context stage code fmt =
  Format.kasprintf
    (fun message -> raise (Error (make ?context stage code message)))
    fmt

let with_context e pairs = { e with context = e.context @ pairs }

let stage_name = function
  | Logic -> "logic"
  | Netlist -> "netlist"
  | Aig -> "aig"
  | Techmap -> "techmap"
  | Spice -> "spice"
  | Power -> "power"
  | Experiment -> "experiment"
  | Library -> "library"
  | Cli -> "cli"

let all_stages =
  [ Logic; Netlist; Aig; Techmap; Spice; Power; Experiment; Library; Cli ]

let stage_of_name s = List.find_opt (fun st -> stage_name st = s) all_stages

let code_name = function
  | Parse_error -> "parse-error"
  | Validation_error -> "validation-error"
  | Non_finite -> "non-finite"
  | Convergence_failure -> "convergence-failure"
  | Singular_matrix -> "singular-matrix"
  | Combinational_loop -> "combinational-loop"
  | Undriven_net -> "undriven-net"
  | Multiply_driven_net -> "multiply-driven-net"
  | Unmapped_node -> "unmapped-node"
  | Missing_signal -> "missing-signal"
  | Mismatch -> "mismatch"
  | Unsupported -> "unsupported"
  | Io_error -> "io-error"
  | Worker_timeout -> "worker-timeout"
  | Worker_killed -> "worker-killed"
  | Regression -> "regression"
  | Overloaded -> "overloaded"
  | Shard_quarantined -> "shard-quarantined"
  | Internal -> "internal"

let all_codes =
  [
    Parse_error; Validation_error; Non_finite; Convergence_failure;
    Singular_matrix; Combinational_loop; Undriven_net; Multiply_driven_net;
    Unmapped_node; Missing_signal; Mismatch; Unsupported; Io_error;
    Worker_timeout; Worker_killed; Regression; Overloaded; Shard_quarantined;
    Internal;
  ]

let code_of_name s = List.find_opt (fun c -> code_name c = s) all_codes

let pp ppf e =
  Format.fprintf ppf "%s/%s: %s" (stage_name e.stage) (code_name e.code)
    e.message;
  match e.context with
  | [] -> ()
  | pairs ->
      Format.fprintf ppf " (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v))
        pairs

let to_string e = Format.asprintf "%a" pp e

let of_exn ~stage = function
  | Error e -> e
  | Failure msg -> make stage Internal msg
  | Invalid_argument msg -> make stage Validation_error msg
  | Sys_error msg -> make stage Io_error msg
  | Not_found -> make stage Missing_signal "Not_found"
  | exn -> make stage Internal (Printexc.to_string exn)

let protect ~stage f =
  match f () with
  | x -> Ok x
  | exception Stack_overflow ->
      Result.Error (make stage Internal "stack overflow")
  | exception Out_of_memory -> Result.Error (make stage Internal "out of memory")
  | exception exn -> Result.Error (of_exn ~stage exn)

let get_exn = function Ok x -> x | Result.Error e -> raise (Error e)

(* 0 = success, 10/11 = `all` summary codes (Campaign.exit_status); each
   error class gets its own code so CI and scripts can distinguish failure
   modes without parsing. *)
let exit_code e =
  match e.code with
  | Parse_error -> 12
  | Validation_error -> 13
  | Non_finite -> 14
  | Convergence_failure -> 15
  | Singular_matrix -> 16
  | Combinational_loop -> 17
  | Undriven_net -> 18
  | Multiply_driven_net -> 19
  | Unmapped_node -> 20
  | Missing_signal -> 21
  | Mismatch -> 22
  | Unsupported -> 23
  | Io_error -> 24
  | Worker_timeout -> 25
  | Worker_killed -> 26
  | Internal -> 27
  | Regression -> 28
  | Overloaded -> 29
  | Shard_quarantined -> 30
