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
    [Parse_error] with position context, never an exception. *)

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

(** {2 Decoding and I/O helpers}

    Shared with {!Telemetry}, {!Journal}, {!Metrics} and {!Workqueue}
    so every on-disk artifact ([manifest.json], [golden.json],
    [profile.json], [events.jsonl], [queue.jsonl]) uses one JSON dialect
    and one typed error path. *)

val field : json -> string -> (json, Cnt_error.t) result
(** Required object field; a missing field or a non-object is a typed
    [Parse_error]. *)

val as_num : string -> json -> (float, Cnt_error.t) result
val as_str : string -> json -> (string, Cnt_error.t) result
val as_arr : string -> json -> (json list, Cnt_error.t) result

val map_result :
  ('a -> ('b, Cnt_error.t) result) -> 'a list -> ('b list, Cnt_error.t) result
(** [List.map] that stops at the first error. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; existing ones are fine. *)

val write_atomic : path:string -> string -> (unit, Cnt_error.t) result
(** Write text to a temp file next to [path] and rename it into place,
    creating parent directories as needed. *)

val read_file : string -> (string, Cnt_error.t) result

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

val status_name : status -> string

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
