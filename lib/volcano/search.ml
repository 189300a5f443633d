(** The optimizer driver: two-phase optimization as in paper Section 2.1.

    Phase 1 inserts the initial plan into the memo and saturates it with the
    transformation rules, producing the space of candidate algebraic plans.
    Phase 2 finds the cheapest physical plan for the root class under the
    root requirement: middleware-resident (results are delivered to the
    client through the middleware) with the query's final order. *)

open Tango_rel
open Tango_algebra
open Tango_stats
open Tango_cost

type result = {
  plan : Physical.plan option;
  classes : int;  (** equivalence classes generated *)
  elements : int;  (** class elements generated *)
  considered : int;  (** physical algorithm instantiations examined *)
  time_us : float;  (** optimization time (monotonic clock) *)
}

(** Optimize an initial plan.

    @param factors calibrated cost factors
    @param stats_env base-statistics environment (see {!Derive.env})
    @param required_order final order the client asked for (default none)
    @param partition partition layout of a sharded topology
    @param shard_factors per-backend cost factors (by backend name) *)
let optimize ~(factors : Factors.t) ~(stats_env : Derive.env)
    ?(required_order : Order.t = []) ?rule_observer ?partition ?shard_factors
    (initial : Op.t) : result =
  let t0 = Tango_obs.mono_us () in
  Op.validate initial;
  let memo = Memo.create () in
  let root = Memo.insert_op memo initial in
  Tango_obs.Trace.span "optimize.saturate" (fun () ->
      Rules.saturate ?observer:rule_observer memo;
      Tango_obs.Trace.attr "classes"
        (Tango_obs.Trace.Int (Memo.class_count memo));
      Tango_obs.Trace.attr "elements"
        (Tango_obs.Trace.Int (Memo.element_count memo)));
  let planner =
    Physical.create ?partition ?shard_factors ~memo ~factors ~stats_env ()
  in
  let plan =
    Tango_obs.Trace.span "optimize.plan" (fun () ->
        let p =
          Physical.best planner (Memo.find memo root)
            { Physical.loc = Op.Mw; order = required_order }
        in
        Tango_obs.Trace.attr "considered"
          (Tango_obs.Trace.Int planner.Physical.considered);
        p)
  in
  {
    plan;
    classes = Memo.class_count memo;
    elements = Memo.element_count memo;
    considered = planner.Physical.considered;
    time_us = Tango_obs.mono_us () -. t0;
  }

(** Cost a {e fixed} operator tree without rule exploration — used by the
    experiments to compare the hand-built plan alternatives the paper
    reports.  The tree's transfers and sorts are taken as-is. *)
let cost_plan ~(factors : Factors.t) ~(stats_env : Derive.env)
    ?(required_order : Order.t = []) ?partition ?shard_factors
    (plan_tree : Op.t) : Physical.plan option =
  Op.validate plan_tree;
  let memo = Memo.create () in
  let root = Memo.insert_op memo plan_tree in
  (* no rules: the memo holds exactly this plan *)
  let planner =
    Physical.create ?partition ?shard_factors ~memo ~factors ~stats_env ()
  in
  Physical.best planner (Memo.find memo root)
    { Physical.loc = Op.Mw; order = required_order }
