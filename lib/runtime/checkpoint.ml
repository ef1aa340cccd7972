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

let json_to_string v =
  let b = Buffer.create 1024 in
  let indent d = Buffer.add_string b (String.make (2 * d) ' ') in
  let rec emit d = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> escape_string b s
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ",\n";
            indent (d + 1);
            emit (d + 1) item)
          items;
        Buffer.add_char b '\n';
        indent d;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            indent (d + 1);
            escape_string b k;
            Buffer.add_string b ": ";
            emit (d + 1) v)
          fields;
        Buffer.add_char b '\n';
        indent d;
        Buffer.add_char b '}'
  in
  emit 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Compact single-line rendering: one journal event per line in
   events.jsonl, and the (large) Chrome trace file, where pretty-printing
   would triple the size. *)
let json_to_string_compact v =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> escape_string b s
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            emit item)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            emit v)
          fields;
        Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b

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

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)

type status = Passed | Degraded

let status_name = function Passed -> "passed" | Degraded -> "degraded"

let status_of_name = function
  | "passed" -> Ok Passed
  | "degraded" -> Ok Degraded
  | other -> E.error E.Cli E.Parse_error "unknown entry status %S" other

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
      ("scalars", Obj (List.map (fun (k, v) -> (k, Num v)) e.scalars));
    ]

let entry_of_json j =
  let* experiment = Result.bind (field j "experiment") (as_str "experiment") in
  let* seed_str = Result.bind (field j "seed") (as_str "seed") in
  let* seed =
    match Int64.of_string_opt seed_str with
    | Some s -> Ok s
    | None -> E.error E.Cli E.Parse_error "field \"seed\" is not an int64"
  in
  let* patterns = Result.bind (field j "patterns") (as_num "patterns") in
  let* wall_time = Result.bind (field j "wall_time") (as_num "wall_time") in
  let* attempts = Result.bind (field j "attempts") (as_num "attempts") in
  let* status_str = Result.bind (field j "status") (as_str "status") in
  let* status = status_of_name status_str in
  let* digest = Result.bind (field j "digest") (as_str "digest") in
  let* scalars =
    match field j "scalars" with
    | Ok (Obj fields) ->
        map_result
          (fun (k, v) ->
            let* f = as_num k v in
            Ok (k, f))
          fields
    | Ok _ -> E.error E.Cli E.Parse_error "field \"scalars\" must be an object"
    | Error _ -> Ok []
  in
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
  let* run_name = Result.bind (field j "run") (as_str "run") in
  let* created = Result.bind (field j "created") (as_num "created") in
  let* entries_json = Result.bind (field j "entries") (as_arr "entries") in
  let* entries = map_result entry_of_json entries_json in
  Ok { run_name; created; entries }

(* ------------------------------------------------------------------ *)
(* Disk I/O: atomic write, typed I/O errors.                           *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let io_error path msg =
  E.error ~context:[ ("path", path) ] E.Cli E.Io_error "%s" msg

let write_atomic ~path text =
  match
    mkdir_p (Filename.dirname path);
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> io_error path msg
  | exception Unix.Unix_error (err, _, _) ->
      io_error path (Unix.error_message err)

let read_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | text -> Ok text
  | exception Sys_error msg -> io_error path msg

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
  match
    mkdir_p (Filename.dirname path);
    (* A line appended straight after a torn final line would merge into
       it and be lost to the next reader: end the torn line first. *)
    let torn = ends_torn path in
    let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
    if torn then (
      output_char oc '\n';
      flush oc);
    oc
  with
  | oc -> Ok oc
  | exception Sys_error msg -> io_error path msg
  | exception Unix.Unix_error (err, _, _) ->
      io_error path (Unix.error_message err)

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

let with_path_context path = function
  | Ok _ as ok -> ok
  | Result.Error e -> Result.Error (E.with_context e [ ("path", path) ])

let save ~path m = write_atomic ~path (json_to_string (manifest_to_json m))

let load ~path =
  let* text = read_file path in
  with_path_context path
    (let* j = json_of_string text in
     manifest_of_json j)

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

let golden_of_json j =
  let* metrics_json = Result.bind (field j "metrics") (as_arr "metrics") in
  map_result
    (fun mj ->
      let* g_experiment =
        Result.bind (field mj "experiment") (as_str "experiment")
      in
      let* g_metric = Result.bind (field mj "metric") (as_str "metric") in
      let* g_value = Result.bind (field mj "value") (as_num "value") in
      let* g_rtol = Result.bind (field mj "rtol") (as_num "rtol") in
      Ok { g_experiment; g_metric; g_value; g_rtol })
    metrics_json

let save_golden ~path metrics =
  write_atomic ~path (json_to_string (golden_to_json metrics))

let load_golden ~path =
  let* text = read_file path in
  with_path_context path
    (let* j = json_of_string text in
     golden_of_json j)

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
