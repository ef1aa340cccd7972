module E = Cnt_error

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse of string * int  (* message, offset *)

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse (msg, !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      value)
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8 buf cp =
    (* enough for the escapes we ever emit or accept *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
    else (
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "truncated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' -> (
                  match hex4 () with
                  | cp -> utf8 buf cp
                  | exception _ -> fail "malformed \\u escape")
              | _ -> fail "unknown escape");
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string (String.sub s start (!pos - start)) with
    | f -> f
    | exception _ -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          Arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after the document";
    v
  with
  | v -> Ok v
  | exception Parse (msg, off) ->
      E.error
        ~context:[ ("offset", string_of_int off) ]
        E.Cli E.Parse_error "malformed JSON: %s" msg

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* One printer for both renderings: pretty (two-space indentation, a
   trailing newline) for the documents people read, compact (one line)
   for journal events and the Chrome trace, where indentation would
   triple the size. *)
let render ~pretty v =
  let b = Buffer.create 256 in
  let newline d =
    if pretty then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * d) ' ')
    end
  in
  let rec emit d = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> escape_string b s
    | Arr items -> seq d '[' ']' (emit (d + 1)) items
    | Obj fields ->
        seq d '{' '}'
          (fun (k, v) ->
            escape_string b k;
            Buffer.add_string b (if pretty then ": " else ":");
            emit (d + 1) v)
          fields
  and seq : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun d opening closing item items ->
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        newline (d + 1);
        item x)
      items;
    if items <> [] then newline d;
    Buffer.add_char b closing
  in
  emit 0 v;
  if pretty then Buffer.add_char b '\n';
  Buffer.contents b

let json_to_string v = render ~pretty:true v
let json_to_string_compact v = render ~pretty:false v

let obj encode pairs = Obj (List.map (fun (k, v) -> (k, encode v)) pairs)

(* Decoding helpers: every shape violation is a typed parse error naming
   the offending field. *)

let field obj name =
  match obj with
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> E.error E.Cli E.Parse_error "missing field %S" name)
  | _ -> E.error E.Cli E.Parse_error "expected an object around %S" name

let as_num name = function
  | Num f -> Ok f
  | _ -> E.error E.Cli E.Parse_error "field %S must be a number" name

let as_str name = function
  | Str s -> Ok s
  | _ -> E.error E.Cli E.Parse_error "field %S must be a string" name

let as_arr name = function
  | Arr l -> Ok l
  | _ -> E.error E.Cli E.Parse_error "field %S must be an array" name

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* Typed field readers: every artifact decoder reads its fields through
   these, so a shape violation reads the same whichever file it is in. *)

let num_field j name = Result.bind (field j name) (as_num name)
let str_field j name = Result.bind (field j name) (as_str name)
let arr_field decode j name =
  Result.bind (Result.bind (field j name) (as_arr name)) (map_result decode)

let opt_field decode j name ~default =
  match field j name with Ok v -> decode name v | Error _ -> Ok default

let obj_field ?default decode j name =
  match (field j name, default) with
  | Ok (Obj members), _ ->
      map_result
        (fun (k, v) -> Result.map (fun x -> (k, x)) (decode k v))
        members
  | Ok _, _ -> E.error E.Cli E.Parse_error "field %S must be an object" name
  | Error _, Some d -> Ok d
  | (Error _ as e), None -> e

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)

type status = Passed | Degraded

let status_name = function Passed -> "passed" | Degraded -> "degraded"

let status_of_name s =
  match List.find_opt (fun st -> status_name st = s) [ Passed; Degraded ] with
  | Some st -> Ok st
  | None -> E.error E.Cli E.Parse_error "unknown entry status %S" s

type entry = {
  experiment : string;
  seed : int64;
  patterns : int;
  wall_time : float;
  attempts : int;
  status : status;
  digest : string;
  scalars : (string * float) list;
}

type manifest = { run_name : string; created : float; entries : entry list }

let digest_scalars scalars =
  let canonical =
    List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) scalars
    |> List.sort String.compare |> String.concat ";"
  in
  Digest.to_hex (Digest.string canonical)

let entry ~experiment ~seed ~patterns ~wall_time ~attempts ~status scalars =
  {
    experiment;
    seed;
    patterns;
    wall_time;
    attempts;
    status;
    digest = digest_scalars scalars;
    scalars;
  }

let find m name = List.find_opt (fun e -> e.experiment = name) m.entries

let entry_to_json e =
  Obj
    [
      ("experiment", Str e.experiment);
      ("seed", Str (Int64.to_string e.seed));
      ("patterns", Num (float_of_int e.patterns));
      ("wall_time", Num e.wall_time);
      ("attempts", Num (float_of_int e.attempts));
      ("status", Str (status_name e.status));
      ("digest", Str e.digest);
      ("scalars", obj (fun v -> Num v) e.scalars);
    ]

let entry_of_json j =
  let* experiment = str_field j "experiment" in
  let* seed_str = str_field j "seed" in
  let* seed =
    match Int64.of_string_opt seed_str with
    | Some s -> Ok s
    | None -> E.error E.Cli E.Parse_error "field \"seed\" is not an int64"
  in
  let* patterns = num_field j "patterns" in
  let* wall_time = num_field j "wall_time" in
  let* attempts = num_field j "attempts" in
  let* status = Result.bind (str_field j "status") status_of_name in
  let* digest = str_field j "digest" in
  let* scalars = obj_field ~default:[] as_num j "scalars" in
  Ok
    {
      experiment;
      seed;
      patterns = int_of_float patterns;
      wall_time;
      attempts = int_of_float attempts;
      status;
      digest;
      scalars;
    }

let manifest_to_json m =
  Obj
    [
      ("run", Str m.run_name);
      ("created", Num m.created);
      ("entries", Arr (List.map entry_to_json m.entries));
    ]

let manifest_of_json j =
  let* run_name = str_field j "run" in
  let* created = num_field j "created" in
  let* entries = arr_field entry_of_json j "entries" in
  Ok { run_name; created; entries }

(* ------------------------------------------------------------------ *)
(* Disk I/O: atomic write, typed I/O errors.                           *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* Run a file operation; its failure is a typed io-error naming [path]. *)
let io path f =
  let fail msg = E.error ~context:[ ("path", path) ] E.Cli E.Io_error "%s" msg in
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> fail msg
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)

let write_atomic ~path text =
  io path (fun () ->
      mkdir_p (Filename.dirname path);
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc text;
      close_out oc;
      Sys.rename tmp path)

let read_file path = io path (fun () -> In_channel.with_open_bin path In_channel.input_all)

(* JSONL logs ([events.jsonl], [queue.jsonl]): whole lines, each flushed,
   so a crash tears at most the line being written and readers skip torn
   lines. *)

let ends_torn path =
  Sys.file_exists path
  && In_channel.with_open_bin path (fun ic ->
         let n = In_channel.length ic in
         n > 0L
         && (In_channel.seek ic (Int64.pred n);
             In_channel.input_char ic <> Some '\n'))

let open_jsonl ~path =
  io path (fun () ->
      mkdir_p (Filename.dirname path);
      (* A line appended straight after a torn final line would merge into
         it and be lost to the next reader: end the torn line first. *)
      let torn = ends_torn path in
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      if torn then (
        output_char oc '\n';
        flush oc);
      oc)

let append_jsonl oc j =
  let line = json_to_string_compact j ^ "\n" in
  (try
     output_string oc line;
     flush oc
   with Sys_error _ -> ());
  String.length line

let read_jsonl decode path =
  let* text = read_file path in
  let items, skipped =
    List.fold_left
      (fun (items, skipped) line ->
        if String.trim line = "" then (items, skipped)
        else
          match Result.bind (json_of_string line) decode with
          | Ok x -> (x :: items, skipped)
          | Error _ -> (items, skipped + 1))
      ([], 0)
      (String.split_on_char '\n' text)
  in
  Ok (List.rev items, skipped)

let load_json decode ~path =
  let* text = read_file path in
  Result.map_error
    (fun e -> E.with_context e [ ("path", path) ])
    (Result.bind (json_of_string text) decode)

let save ~path m = write_atomic ~path (json_to_string (manifest_to_json m))
let load ~path = load_json manifest_of_json ~path

(* ------------------------------------------------------------------ *)
(* Golden results                                                      *)

type golden_metric = {
  g_experiment : string;
  g_metric : string;
  g_value : float;
  g_rtol : float;
}

type drift = {
  d_experiment : string;
  d_metric : string;
  d_expected : float;
  d_actual : float option;
  d_rtol : float;
}

let golden_of_manifest ?(rtol = 0.1) ?experiments m =
  let wanted e =
    match experiments with
    | None -> true
    | Some names -> List.mem e.experiment names
  in
  List.concat_map
    (fun e ->
      if not (wanted e) then []
      else
        List.map
          (fun (k, v) ->
            {
              g_experiment = e.experiment;
              g_metric = k;
              g_value = v;
              (* exact for counts: the 26-pattern census must stay 26 *)
              g_rtol = (if Float.is_integer v then 0.0 else rtol);
            })
          e.scalars)
    m.entries

let golden_to_json metrics =
  Obj
    [
      ( "metrics",
        Arr
          (List.map
             (fun g ->
               Obj
                 [
                   ("experiment", Str g.g_experiment);
                   ("metric", Str g.g_metric);
                   ("value", Num g.g_value);
                   ("rtol", Num g.g_rtol);
                 ])
             metrics) );
    ]

let golden_metric_of_json j =
  let* g_experiment = str_field j "experiment" in
  let* g_metric = str_field j "metric" in
  let* g_value = num_field j "value" in
  let* g_rtol = num_field j "rtol" in
  Ok { g_experiment; g_metric; g_value; g_rtol }

let golden_of_json j = arr_field golden_metric_of_json j "metrics"

let save_golden ~path metrics =
  write_atomic ~path (json_to_string (golden_to_json metrics))

let load_golden ~path = load_json golden_of_json ~path

let check_golden m metrics =
  List.filter_map
    (fun g ->
      let drift actual =
        {
          d_experiment = g.g_experiment;
          d_metric = g.g_metric;
          d_expected = g.g_value;
          d_actual = actual;
          d_rtol = g.g_rtol;
        }
      in
      match find m g.g_experiment with
      | None -> Some (drift None)
      | Some e -> (
          match List.assoc_opt g.g_metric e.scalars with
          | None -> Some (drift None)
          | Some actual ->
              let scale = Float.max (Float.abs g.g_value) 1e-300 in
              if Float.abs (actual -. g.g_value) > g.g_rtol *. scale then
                Some (drift (Some actual))
              else None))
    metrics

let pp_drift ppf d =
  match d.d_actual with
  | None ->
      Format.fprintf ppf "%s/%s: expected %.6g but missing from the manifest"
        d.d_experiment d.d_metric d.d_expected
  | Some actual ->
      Format.fprintf ppf
        "%s/%s: expected %.6g +/- %.1f%%, manifest has %.6g (drift %+.2f%%)"
        d.d_experiment d.d_metric d.d_expected (100.0 *. d.d_rtol) actual
        (100.0 *. (actual -. d.d_expected) /. Float.max (Float.abs d.d_expected) 1e-300)
