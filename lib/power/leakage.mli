(** Circuit-level quantification of I_off patterns (Section 3.3).

    Each distinct pattern is turned into a transistor netlist — unit off
    n-devices (gate grounded) arranged in the pattern's series/parallel
    shape between V_DD and ground — and handed to the DC solver; the rail
    current is the pattern's subthreshold leakage. Results are cached per
    (pattern, technology family), which is exactly why the paper's pattern
    classification saves simulation work. *)

val pattern_ioff : Spice.Tech.t -> Pattern.t -> float
(** Leakage current of a pattern at rail bias. [Pattern.Unit 0] (an empty
    network, e.g. a gate whose off network vanished entirely) yields 0. *)

val clear_cache : unit -> unit
(** Drop the table and zero the hit/miss counters. The table lives in
    memory only: every process starts cold. *)

type stats = { entries : int; hits : int; misses : int }
(** [misses] counts actual DC solves; [hits] counts solves the
    classification cache avoided. *)

val cache_stats : unit -> stats

val hit_ratio : stats -> float
(** Hits over total lookups, 0 when the cache was never consulted. *)

val gate_ioff : Spice.Tech.t -> Pattern.gate_patterns -> float array
(** Per input vector: pattern leakage plus one unit off-current per internal
    inverter. *)

val gate_ig : Spice.Tech.t -> Pattern.gate_patterns -> float array
(** Per input vector gate-tunneling current: on devices leak at the on rate,
    off devices at the (much lower) off rate. *)
