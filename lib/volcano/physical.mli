(** Physical plan search (the optimizer's second phase, paper §2.1).

    For every memo class, find the cheapest physical plan satisfying a
    {e required property}: result location (DBMS or middleware) and output
    order.  Order bookkeeping implements rules T10/T11 physically: a sort
    whose input already has the needed order costs nothing. *)

open Tango_rel
open Tango_algebra

type algorithm =
  | Table_scan_d
  | Filter_d
  | Filter_m
  | Project_d
  | Project_m
  | Sort_d
  | Sort_m
  | Sort_passthrough  (** input already ordered — the physical T10/T11 *)
  | Join_d
  | Merge_join_m
  | Tjoin_d
  | Tjoin_m
  | Product_d
  | Taggr_d
  | Taggr_m
  | Dupelim_d
  | Dupelim_m
  | Coalesce_m
  | Difference_m
  | Transfer_m_algo
  | Transfer_d_algo
  | Scatter_gather_m
      (** partition-aware `T^M`: per-shard transfers merged by an ordered
          gather in the middleware *)

val algorithm_name : algorithm -> string

type plan = {
  algorithm : algorithm;
  op : Op.t;  (** logical operator with the chosen children substituted *)
  children : plan list;
  own_cost : float;  (** microseconds, this algorithm only *)
  total_cost : float;  (** microseconds, including children *)
  out_order : Order.t;
  location : Op.location;
  shards : string list;
      (** [Scatter_gather_m] only: names of the backends the transfer must
          hit; [[]] for every other algorithm *)
}

(** Required physical properties. *)
type req = { loc : Op.location; order : Order.t }

type t = {
  memo : Memo.t;
  factors : Tango_cost.Factors.t;
  stats_env : Tango_stats.Derive.env;
  partition : Partition.layout option;
      (** [Some] when the topology shards a table: transfers become
          partition-aware *)
  shard_factors : string -> Tango_cost.Factors.t;
      (** per-backend cost factors, keyed by backend name *)
  cache : (req * plan option) list array;
      (** by class id: the plans found, by requirement *)
  in_progress : req list array;
      (** by class id: the requirements being planned *)
  stats_cache : Tango_stats.Rel_stats.t option option array;
      (** by class id: its statistics, once derived *)
  components : int array Lazy.t;
      (** by class id: its strongly connected component in the class
          graph *)
  mutable considered : int;  (** algorithm instantiations examined *)
}

val create :
  ?partition:Partition.layout ->
  ?shard_factors:(string -> Tango_cost.Factors.t) ->
  memo:Memo.t ->
  factors:Tango_cost.Factors.t ->
  stats_env:Tango_stats.Derive.env ->
  unit ->
  t

val class_stats : t -> int -> Tango_stats.Rel_stats.t option
(** A class's estimated statistics, derived one level
    ({!Tango_stats.Derive.step}) from its children's cached statistics,
    for the element {!Memo.extract} would choose: transfers last, then the
    first element that does not lead back into a class being derived.
    [None] when the derivation fails or every element is cyclic. *)

val best : t -> int -> req -> plan option
(** Cheapest plan for the class under the requirement ([None] when
    infeasible).  Memoized; cyclic memo paths are treated as infeasible. *)

val to_string : plan -> string

val signature : plan -> string
(** One-line summary of the plan's algorithms. *)

val collect_tds : plan -> plan list
(** The [TRANSFER^D] nodes inside a DBMS-resident subtree, left to right,
    stopping at each: what lies below one feeds its temp table from the
    middleware. *)

(** {2 Fingerprints}

    Canonical identities for the profiling feedback store and the plan
    regression sentinel.  Fingerprints are stable under plan-irrelevant
    differences: table aliases (and the alias-derived column names they
    induce) are reduced to base names, and predicate literals are stripped
    to a placeholder, so the same query shape over different constants
    accumulates statistics under one key. *)

val op_fingerprint : Op.t -> string
(** 16-hex-digit digest of a logical operator tree. *)

val fingerprint : plan -> string
(** Digest of a physical plan: the algorithm tree plus the canonicalized
    logical tree, so the same logical fragment under a different algorithm
    choice keys separately. *)

(** {2 Plan templates} *)

val instantiate : Value.t array -> plan -> plan
(** Close a plan template over bound parameter values: every
    [Ast.Param n] in every operator's expressions becomes
    [Lit values.(n-1)].  Costs, algorithms and orders are untouched —
    instantiation must not re-plan; re-run {!prune_scatter} afterwards
    to restore per-binding shard pruning.  Each node's operator is
    rebuilt over its children's closed operators (the planner makes a
    node's children its operator's arguments).  Raises {!Op.Ill_formed}
    when a parameter has no bound value. *)

(** {2 Partition-aware refinement} *)

val prune_scatter : Partition.layout -> plan -> plan
(** Drop shards a scatter provably cannot need, using period predicates
    the middleware applies directly above it (through filter/sort
    contexts only).  Sound: a shard is dropped only when its bounds
    cannot overlap the interval the predicates confine the (traceable)
    partition column to. *)

val scatter_violations : Partition.layout -> plan -> (string * string) list
(** Partition-safety violations — single-backend transfers over
    partitioned data, scatters over non-distributable subtrees, shard
    lists that lose data.  [(path, message)] pairs; empty = correct. *)
