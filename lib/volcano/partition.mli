(** Partition analysis: which shards a DBMS-side subtree must run on.

    The topology range-partitions at most one table on a numeric (chronon)
    column; every other table — including [TRANSFER^D] temporaries — is
    replicated.  A DBMS subtree can therefore run {e per shard} with its
    results unioned, provided the partitioned table flows through it in a
    way that distributes over union.  {!analyze} decides this
    conservatively:

    - subtrees that never touch the partitioned table are
      {!Unpartitioned}: any single backend computes them completely;
    - selections, sorts, projections and joins {e against replicated
      inputs} distribute over union, so such subtrees can scatter — and
      period predicates over the partition column, harvested from the
      selections directly above the partitioned scan, prune the shard list
      to those whose bounds the predicates can overlap;
    - aggregation, duplicate elimination, coalescing, difference, and
      joins of the partitioned table with itself do {e not} distribute,
      so the subtree is {!Unsafe}: it has no correct single- or per-shard
      DBMS execution, and the optimizer must place those operators in the
      middleware (above the scatter/gather).

    Bounds and predicate constants are compared in the numeric view of
    {!Tango_rel.Value} (dates as chronons). *)

open Tango_algebra

type shard = {
  shard_name : string;
  lo : float option;  (** inclusive lower bound *)
  hi : float option;  (** exclusive upper bound *)
}

type layout = {
  table : string;  (** the partitioned table *)
  column : string;  (** partition column base name, e.g. ["T1"] *)
  shards : shard list;
}

type interval = float option * float option
(** Closed interval [\[ge, le\]] a predicate confines the partition column
    to; [None] = unbounded on that side. *)

val top : interval

val inter : interval -> interval -> interval

val interval_of_pred : column:string -> Tango_sql.Ast.expr -> interval
(** Conservative interval implied by the predicate's top-level conjuncts
    that compare [column] (matched by base name) to a literal.  Anything
    unrecognized widens, never narrows. *)

val restrict : shard list -> interval -> shard list

type verdict =
  | Unpartitioned  (** complete on any single backend *)
  | Scatter of { shards : shard list; traceable : bool }
      (** must run on (at least) these shards; [traceable] means the
          partition column survives to the subtree's output under its base
          name, so middleware-side predicates above the transfer may prune
          further *)
  | Unsafe of string  (** does not distribute over the partition *)

val analyze : layout -> Op.t -> verdict
(** Analyze a DBMS-side logical subtree (the argument of a [To_mw]). *)
