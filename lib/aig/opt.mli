(** AIG optimization passes (our substitute for ABC's [resyn2rs] pieces).

    Every pass is functional: it analyzes the input AIG and rebuilds a fresh
    structurally hashed AIG, so no in-place surgery is needed. Passes never
    change the circuit function (checked by the test suite with random and
    exhaustive co-simulation). *)

val balance : Aig.t -> Aig.t
(** Delay-driven balancing: maximal single-fanout AND trees are rebuilt as
    minimum-depth trees (lowest-level operands combined first). *)

val rewrite : ?zero_cost:bool -> ?k:int -> ?max_cuts:int -> Aig.t -> Aig.t
(** Cut-based rewriting: for every node, enumerate [k]-feasible cuts
    (default [k = 4]), re-express the cut function as a factored form and
    accept the replacement when it saves AIG nodes compared to the
    maximum-fanout-free cone of the cut ([zero_cost] also accepts
    size-neutral replacements, which perturbs the structure like ABC's
    [rw -z]). Each distinct cut function is factored once per pass: a
    table keyed by the function, created for the pass and dropped with it
    (no table outlives a call, so forked workers share none). *)

val refactor : ?k:int -> ?max_cuts:int -> Aig.t -> Aig.t
(** Same engine with larger cuts (default [k = 8]), corresponding to ABC's
    [refactor]. *)

val resyn2rs : Aig.t -> Aig.t
(** Optimization script modeled after ABC's [resyn2rs]: interleaved balance,
    rewrite and refactor passes, iterated while the node count improves. *)
