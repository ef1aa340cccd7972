(** K-feasible cut enumeration on AIGs.

    A cut of node [n] is a set of nodes (leaves) such that every path from
    [n] to a primary input passes through a leaf. Cuts drive both the
    rewriting passes and the technology mapper. *)

type cut = {
  leaves : int array;  (** Leaf node ids, sorted ascending. The trivial cut of [n] is [{n}]. *)
  fn : Logic.Truthtable.t;
      (** The node's function over the leaves: [Array.length leaves]
          variables, variable [i] = leaf [i] (the projection [x0] for a
          trivial cut). Equal to {!Aig.cone_tt} over the leaves. *)
}

val enumerate : Aig.t -> k:int -> max_cuts:int -> cut array array
(** [enumerate t ~k ~max_cuts] computes for every node a set of cuts with
    at most [k] leaves ([1 <= k <= 16]), keeping at most [max_cuts >= 1]
    cuts per node. Constant and input nodes get only their trivial cut.

    The cuts of an AND node are merged from one cut of each fanin, with
    repeats and dominated cuts (proper supersets of another merged cut)
    dropped. They come in cut order: by size, then by leaves
    lexicographically, the first [max_cuts - 1] of that order kept, and
    the trivial cut stored last. [Opt] and [Mapper] keep the first of
    equally good cuts, so this order is part of every optimized and
    mapped result.

    Each cut's function is carried through the merge: the fanin cuts'
    functions are stretched onto the merged leaves and combined, so no
    cone is walked. *)

val mffc_size : Aig.t -> int array -> int -> cut -> int
(** [mffc_size t fanouts node cut] counts the AND nodes in the cone of
    [node] above the cut that are referenced only from inside that cone —
    the nodes that would die if [node] were re-expressed directly in terms
    of the cut leaves. [fanouts] comes from {!Aig.fanout_counts}; the call
    decrements it along the cone and restores it before returning. *)
