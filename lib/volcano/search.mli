(** The optimizer driver: two-phase optimization as in paper Section 2.1.

    Phase 1 saturates a memo with the transformation rules, producing the
    space of candidate algebraic plans.  Phase 2 finds the cheapest
    physical plan for the root class under the root requirement
    (middleware-resident, with the query's final order). *)

open Tango_rel
open Tango_algebra

type result = {
  plan : Physical.plan option;
  classes : int;  (** equivalence classes generated *)
  elements : int;  (** class elements generated *)
  considered : int;  (** physical algorithm instantiations examined *)
  time_us : float;  (** optimization wall time *)
}

val optimize :
  factors:Tango_cost.Factors.t ->
  stats_env:Tango_stats.Derive.env ->
  ?required_order:Order.t ->
  ?rule_observer:Rules.observer ->
  ?partition:Partition.layout ->
  ?shard_factors:(string -> Tango_cost.Factors.t) ->
  Op.t ->
  result
(** Optimize an initial plan (validated first).  [rule_observer] is invoked
    after every successful rule application during saturation — the debug
    hook behind {!Tango_verify.Gate}.  With [partition], transfers out of
    the sharded subtrees become partition-aware ({!Physical.Scatter_gather_m}). *)

val cost_plan :
  factors:Tango_cost.Factors.t ->
  stats_env:Tango_stats.Derive.env ->
  ?required_order:Order.t ->
  ?partition:Partition.layout ->
  ?shard_factors:(string -> Tango_cost.Factors.t) ->
  Op.t ->
  Physical.plan option
(** Cost a {e fixed} operator tree without rule exploration — used by the
    experiments to compare the paper's hand-built plan alternatives. *)
