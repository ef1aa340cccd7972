(** Process-isolated execution: one pool of forked workers.

    [cntpower all], [cntpower campaign] and [cntpower serve] all run
    their work through the three calls below. {!spawn} forks one job
    under a per-job deadline; {!wait} multiplexes the jobs' result pipes
    (and any descriptors of the caller) in one [select], reaps what
    finished and SIGKILLs what overran; {!abort_all} kills what is left.
    The pool is the caller's list of running jobs: each caller keeps its
    own retry policy (the campaign runner behind [all] and [campaign]
    retries {!retryable} failures degraded after a backoff and
    quarantines the rest, the daemon backs off and trips its breaker).

    A worker that outlives its deadline is SIGKILLed and reported as a
    {!Cnt_error.Worker_timeout}; one that dies on a signal (OOM killer,
    segfault, external [kill]) or exits nonzero is a
    {!Cnt_error.Worker_killed}. A job the runtime refuses to fork (the
    pipe or the fork raising, e.g. OCaml 5 once a domain was spawned)
    fails with the typed error of that exception, which is not
    retryable.

    When the {!Journal} is enabled the pool narrates each job under its
    name: [worker_spawned] / [worker_exited] / [worker_timeout] /
    [worker_killed] from the parent, and the worker's own captured events
    (it {!Journal.begin_capture}s right after the fork) ride the result
    pipe back next to the result and are appended to the on-disk journal
    with their worker-PID provenance. Every one of them carries
    [worker=<name>], so a job's events are found by its name alone. *)

type 'a job
(** A forked worker computing an ['a]. *)

val spawn :
  ?telemetry_prefix:string list ->
  ?close_in_child:Unix.file_descr list ->
  ?timeout_s:float ->
  name:string ->
  (unit -> 'a) ->
  'a job
(** Fork a worker running [f ()] with a deadline [timeout_s] seconds
    from now ([<= 0.] or absent: none). The worker's value (or typed
    error) is marshalled back, so ['a] must not contain closures; any
    exception escaping [f] becomes a typed error via
    {!Cnt_error.protect}. [name] identifies the job in its journal
    events and errors; callers keep it unique per unit of work.
    [close_in_child] lists descriptors the child must not keep open (the
    daemon's listening socket and client connections).

    With a non-empty [telemetry_prefix] and {!Telemetry.enabled}, the
    worker resets its registry on entry and ships a snapshot on exit;
    the parent merges it under the prefix, charging each prefix node
    one call and the worker's wall time, and journals each top-level
    span's seconds on [worker_exited] as [span:<name>=<seconds>]. *)

val wait :
  ?fds:Unix.file_descr list ->
  ?until:float ->
  'a job list ->
  Unix.file_descr list * ('a job * ('a, Cnt_error.t) result) list
(** Block until one of [fds] is readable, a job finishes or overruns its
    deadline, or the epoch [until] passes (at once if there is nothing to
    wait for); return the ready [fds] and the finished jobs with their
    results, journal events appended and telemetry merged. An overrun job
    is SIGKILLed and finishes with a [Worker_timeout]. On [EINTR] returns
    early with nothing. Jobs already returned must not be passed again. *)

val abort_all : 'a job list -> unit
(** SIGKILL and reap every job still running; no result, no journal
    event — the caller narrates why (drain timeout). *)

val retryable : Cnt_error.t -> bool
(** [true] exactly for the [Worker_timeout] / [Worker_killed] codes: the
    failures a retry (in degraded mode) can cure. A deterministic in-job
    error would just fail again. *)
