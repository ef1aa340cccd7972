(** The runtime's JSON dialect, run manifests and the golden-result
    regression gate.

    [cntpower all] and [cntpower campaign] render
    `_runs/<name>/manifest.json` from the [done] records of their queue
    log ([Experiments.Campaign]): one entry per finished shard with its
    seed, pattern count, wall time, a digest of the scalar outputs and
    the scalars themselves. [cntpower golden --check] compares the
    manifest scalars against a committed golden file with per-metric
    relative tolerances — the paper's headline numbers as a machine
    regression gate.

    The JSON reader/writer is self-contained (no external dependency) and
    accepts standard JSON; malformed input surfaces as a typed
    [Parse_error] with position context, never an exception. It is the
    one JSON dialect of the runtime: every artifact decoder — manifest
    entry, golden file, profile, metrics snapshot, journal event, queue
    record, daemon error payload and [serve] admission — reads its
    fields through the typed readers below, so a shape violation reads
    the same in every file. *)

(** Minimal JSON document model. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_of_string : string -> (json, Cnt_error.t) result
val json_to_string : json -> string
(** Pretty-printed with two-space indentation and a trailing newline. *)

val json_to_string_compact : json -> string
(** Single-line rendering without a trailing newline; used for JSONL
    event lines ({!Journal}) and the Chrome trace ({!Trace_export}). *)

val obj : ('a -> json) -> (string * 'a) list -> json
(** An object from an association list, each value encoded: the inverse
    of {!obj_field}. *)

(** {2 Decoding and I/O helpers}

    Shared with {!Telemetry}, {!Journal}, {!Metrics}, {!Workqueue} and
    {!Server} so every artifact ([manifest.json], [golden.json],
    [profile.json], [metrics.json], [events.jsonl], [queue.jsonl], the
    daemon's frames) uses one JSON dialect and one typed error path. *)

val field : json -> string -> (json, Cnt_error.t) result
(** Required object field; a missing field or a non-object is a typed
    [Parse_error]. *)

val as_num : string -> json -> (float, Cnt_error.t) result
val as_str : string -> json -> (string, Cnt_error.t) result
(** [as_num name v]: [v] as a number, else a [Parse_error] naming
    [name]; likewise a string. *)

(** {3 Typed field readers}

    Every artifact decoder reads its fields through these; each failure
    is a [Parse_error] that names the field. *)

val num_field : json -> string -> (float, Cnt_error.t) result
(** Required number field. *)

val str_field : json -> string -> (string, Cnt_error.t) result

val arr_field :
  (json -> ('a, Cnt_error.t) result) ->
  json ->
  string ->
  ('a list, Cnt_error.t) result
(** An array field decoded element by element, in order. *)

val opt_field :
  (string -> json -> ('a, Cnt_error.t) result) ->
  json ->
  string ->
  default:'a ->
  ('a, Cnt_error.t) result
(** [opt_field as_num j name ~default]: an absent field reads as
    [default]; a present one must decode. *)

val obj_field :
  ?default:(string * 'a) list ->
  (string -> json -> ('a, Cnt_error.t) result) ->
  json ->
  string ->
  ((string * 'a) list, Cnt_error.t) result
(** An object field decoded member by member ([decode key value]), in
    member order. A missing field is an error unless [default] is given;
    a field that is not an object always is. *)

val write_atomic : path:string -> string -> (unit, Cnt_error.t) result
(** Write text to a temp file next to [path] and rename it into place,
    creating parent directories as needed. *)

val load_json :
  (json -> ('a, Cnt_error.t) result) -> path:string -> ('a, Cnt_error.t) result
(** Read, parse and decode one JSON file; a parse or decode error
    carries the [path]. *)

(** {2 JSONL logs}

    The append-only logs ([events.jsonl], [queue.jsonl]) hold one
    compact JSON value per line. Each line is written whole and flushed,
    so a crash tears at most the line in flight, and readers skip torn
    lines. *)

val open_jsonl : path:string -> (out_channel, Cnt_error.t) result
(** Open [path] for appending, creating it and its parent directories.
    A final line torn short of its newline is ended first, so the next
    appended line cannot merge into it. *)

val append_jsonl : out_channel -> json -> int
(** Append one line and flush; returns the bytes written. A failed write
    is dropped: the log stays readable and the caller keeps running. *)

val read_jsonl :
  (json -> ('a, Cnt_error.t) result) ->
  string ->
  ('a list * int, Cnt_error.t) result
(** Decode every non-blank line of a file, in file order, plus the number
    of torn or corrupt lines skipped. Only an unreadable file is an
    error. *)

type status = Passed | Degraded  (** [Degraded]: from a degraded retry *)

type entry = {
  experiment : string;
  seed : int64;
  patterns : int;
  wall_time : float;  (** s *)
  attempts : int;
  status : status;
  digest : string;  (** MD5 hex over the canonical scalar rendering *)
  scalars : (string * float) list;
}

type manifest = {
  run_name : string;
  created : float;  (** unix epoch seconds the rendering run started *)
  entries : entry list;
}

val digest_scalars : (string * float) list -> string

val entry :
  experiment:string ->
  seed:int64 ->
  patterns:int ->
  wall_time:float ->
  attempts:int ->
  status:status ->
  (string * float) list ->
  entry
(** Builds an entry, computing the digest from the scalars. *)

val find : manifest -> string -> entry option

val save : path:string -> manifest -> (unit, Cnt_error.t) result
(** Atomic: writes a temp file in the target directory (created if
    missing) and renames it over [path]. *)

val load : path:string -> (manifest, Cnt_error.t) result

(** {1 Golden results} *)

type golden_metric = {
  g_experiment : string;
  g_metric : string;
  g_value : float;
  g_rtol : float;  (** relative tolerance; [0.] means exact *)
}

type drift = {
  d_experiment : string;
  d_metric : string;
  d_expected : float;
  d_actual : float option;  (** [None]: metric or experiment missing *)
  d_rtol : float;
}

val golden_of_manifest :
  ?rtol:float -> ?experiments:string list -> manifest -> golden_metric list
(** One metric per scalar of every entry (optionally restricted to
    [experiments]). Integral values get tolerance [0.] — counts like the
    26-pattern census must match exactly — everything else [rtol]
    (default 0.1). *)

val save_golden : path:string -> golden_metric list -> (unit, Cnt_error.t) result
val load_golden : path:string -> (golden_metric list, Cnt_error.t) result

val check_golden : manifest -> golden_metric list -> drift list
(** Empty list = gate passes. A golden metric whose experiment or scalar
    is absent from the manifest is a drift with
    [d_actual = None]; a present value drifts when
    [|actual - expected| > rtol * max(|expected|, tiny)]. *)

val pp_drift : Format.formatter -> drift -> unit
