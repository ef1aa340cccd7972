(** Cross-run regression comparison of telemetry profiles and manifests.

    [cntpower compare] diffs two runs the way [cntpower golden --check]
    gates metrics: structurally, with configurable relative tolerances,
    and with a distinct typed exit code ({!Cnt_error.Regression}, 28) so
    CI can gate on performance drift.

    Span trees are matched by path ([table1/techmap.map/...]); wall-clock
    regressions are one-sided (only slower-than-tolerance fails — faster
    is reported as improved), and spans below [min_wall_s] in both runs
    are ignored as timing jitter. Counters and manifest scalars are
    deterministic for a fixed seed, so their drift is two-sided. *)

type tolerances = {
  wall_rtol : float;  (** allowed relative slowdown per span (default 0.5) *)
  counter_rtol : float;  (** allowed relative counter drift (default 0.1) *)
  scalar_rtol : float;  (** allowed relative scalar drift (default 0.05) *)
  dist_rtol : float;
      (** allowed relative drop of a distribution mean (default 0.5);
          distributions are throughput-like, so only lower-than-tolerance
          regresses *)
  min_wall_s : float;
      (** spans faster than this in both runs never regress (default 0.05) *)
}

val default : tolerances

type verdict =
  | Within  (** present in both, inside tolerance *)
  | Regressed  (** drift beyond tolerance — fails the gate *)
  | Improved  (** wall clock faster than tolerance (informational) *)
  | Missing  (** in the baseline only (informational) *)
  | Added  (** in the current run only (informational) *)

type kind = Span | Counter | Scalar | Dist

type item = {
  i_kind : kind;
  i_name : string;  (** span path joined with "/", counter or exp/metric *)
  i_base : float option;
  i_cur : float option;
  i_verdict : verdict;
}

type report = { tol : tolerances; items : item list }

val verdict_name : verdict -> string
val kind_name : kind -> string

val compare_profiles :
  ?tol:tolerances -> base:Telemetry.profile -> Telemetry.profile -> item list
(** [compare_profiles ~base cur]: span wall-clock items (seconds), then
    counter items, then distribution means ([sim.patterns_per_s],
    [estimate.patterns_per_s], ...), each name sorted. Distribution drift is
    one-sided: only a mean dropping more than [dist_rtol] regresses. *)

val compare_manifests :
  ?tol:tolerances -> base:Checkpoint.manifest -> Checkpoint.manifest -> item list
(** Scalar items of entries present in either manifest; scalars of failed
    entries count as absent. *)

val regressions : report -> item list

val delta_rel : item -> float option
(** [(cur - base) / |base|] when both sides are present and base is
    nonzero. *)

val pp : Format.formatter -> report -> unit
(** Human table: spans with base/current/delta, then counters, then
    scalars, then a one-line verdict count. *)

val to_json : report -> Checkpoint.json

val regression_error : report -> Cnt_error.t option
(** [Some] typed {!Cnt_error.Regression} (exit code 28) when any item
    regressed, with the offender count in context. *)
