(** EXPLAIN ANALYZE for middleware plans.

    Walks the optimized physical plan and the measured operator trace
    (grafted by [Exec_plan.to_trace]) together, pairing every
    middleware-resident operator with its execution record and producing
    estimated-vs-actual cardinality, bytes, cost, page reads and client
    round trips, plus the per-operator q-error — the standard
    misestimation metric [max(est/act, act/est)].

    The report also carries refit observations ({!Tango_cost.Calibrate.
    observation}): per-operator measured times attributed to the cost
    factor of the operator's formula, ready for the adaptive
    recalibration loop ({!Adapt}). *)

open Tango_stats
open Tango_cost
open Tango_volcano

val q_error : ?floor:float -> est:float -> actual:float -> unit -> float
(** [max(est/act, act/est)] with both sides floored at [floor]
    (default 1.0); always >= 1, and 1 on a perfect estimate. *)

type record = {
  operator : string;  (** algorithm name, e.g. ["TRANSFER^M"] *)
  depth : int;  (** 0 at the plan root *)
  fingerprint : string;  (** plan-fragment fingerprint of this subtree *)
  est_rows : float;
  act_rows : int;
  est_bytes : float;
  act_bytes : float;
  est_us : float;  (** inclusive estimated cost (children included) *)
  act_us : float;  (** inclusive measured wall time *)
  est_self_us : float;
      (** this operator's own formula term ([own_cost]); for a transfer
          that is [p_tm·size], which the refit observations charge with
          the whole DBMS statement below it *)
  act_self_us : float;  (** measured time minus the paired children's *)
  est_pages : float;  (** DBMS pages; rough, nonzero only for transfers *)
  act_pages : int;
  est_roundtrips : float;  (** client round trips; transfers only *)
  act_roundtrips : int;
  q_rows : float;  (** cardinality q-error *)
  q_cost : float;  (** cost q-error (inclusive us, floored at 1) *)
  q_self : float;
      (** self-cost q-error ([est_self_us] vs [act_self_us]): the error of
          the one factor that prices this operator, undiluted by the
          costs of its inputs *)
}

type report = {
  records : record list;  (** preorder, depth-first *)
  fingerprint : string;  (** whole-plan fingerprint *)
  mean_q_rows : float;
  mean_q_cost : float;
  max_q_rows : float;
  max_q_cost : float;
  total_est_us : float;
  total_act_us : float;
  observations : Calibrate.observation list;
}

val analyze :
  stats_env:Derive.env ->
  factors:Factors.t ->
  ?row_prefetch:int ->
  ?page_size:int ->
  Physical.plan ->
  Tango_obs.Trace.span ->
  report
(** Pair [plan] with the operator trace produced by executing it
    ([Exec_plan.to_trace]).  [factors] are the cost factors the plan was
    costed with — used to strip known output/sort terms from measured
    times when attributing them to a single coefficient.  [row_prefetch]
    (default 10) feeds the round-trip estimate; [page_size] (default
    4096) the page estimate. *)

val to_string : report -> string
