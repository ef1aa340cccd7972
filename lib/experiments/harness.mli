(** Supervised experiment execution with failure collection, durable
    checkpoints and resume.

    [cntpower all] runs every experiment through this harness. Each
    experiment executes as one job of the {!Runtime.Supervisor} pool
    ({!Runtime.Supervisor.run}): a crash (signal, OOM kill, nonzero exit)
    or a wall-clock timeout is reaped by the pool, converted to a typed
    {!Runtime.Cnt_error.t} ([Worker_killed] / [Worker_timeout]) and
    retried in *degraded* mode (the entry sees [~degraded:true] and is
    expected to shed load, e.g. halve its pattern count). A profiled
    worker's spans land under a span named for the experiment, charged
    with the attempt that returned them. With [policy = None] entries run
    in-process, which is what the unit tests use and what
    [--no-supervise] selects.

    When a manifest path is configured, the harness persists a
    {!Runtime.Checkpoint.manifest} entry after every experiment —
    completed work survives a mid-run kill — and with [resume = true]
    entries already recorded as passed (same seed and pattern count) are
    skipped as [Resumed].

    In [Keep_going] mode (the default) a failure does not stop the
    remaining experiments; in [Strict] mode the run aborts at the first
    failure. *)

type mode = Keep_going | Strict

type status =
  | Passed of {
      wall : float;  (** wall-clock seconds, all attempts *)
      scalars : (string * float) list;
      degraded : bool;  (** result came from the degraded retry *)
      attempts : int;
    }
  | Failed of { wall : float; attempts : int; error : Runtime.Cnt_error.t }
  | Skipped  (** not run because a [Strict] run aborted earlier *)
  | Resumed of Runtime.Checkpoint.entry
      (** skipped: the manifest already holds a passing result *)

type entry = {
  name : string;
  doc : string;
  run : degraded:bool -> Format.formatter -> (string * float) list;
      (** Runs the experiment, printing its report to the formatter, and
          returns the scalar outputs recorded in the manifest. Must not
          capture non-marshallable state in its return value. *)
}

type config = {
  mode : mode;
  policy : Runtime.Supervisor.policy option;
      (** [None]: in-process, no isolation (unit tests, [--no-supervise]) *)
  run_name : string;
  manifest_path : string option;  (** persist after every entry *)
  resume : bool;
  seed : int64;  (** recorded per entry; part of the resume key *)
  patterns : int;  (** recorded per entry; part of the resume key *)
}

val default_config : config
(** [Keep_going], in-process, no manifest, run name ["all"], seed 42,
    the paper's 640 K patterns. *)

val entry :
  string ->
  string ->
  (degraded:bool -> Format.formatter -> (string * float) list) ->
  entry

type summary = { mode : mode; results : (string * status) list; aborted : bool }

val run_all : ?config:config -> Format.formatter -> entry list -> summary
(** Announces each experiment on the formatter, runs it under the
    configured supervision, checkpoints the outcome, and records it.
    Never raises: failures (including [Failure]/[Invalid_argument] from
    unhardened code paths, worker death and watchdog timeouts) are
    captured as typed errors. *)

val failures : summary -> (string * Runtime.Cnt_error.t) list

val print_summary : Format.formatter -> summary -> unit
(** One line per experiment plus a pass/fail count; failed experiments show
    their stage/code and context, degraded passes are flagged. *)

val exit_status : summary -> int
(** [0] all passed (resumed and degraded entries count as passed); [10]
    completed with failures ([Keep_going]); [11] aborted at the first
    failure ([Strict]). *)
