(** EXPLAIN ANALYZE for middleware plans: pair the optimized physical
    plan with the measured operator trace and compute per-operator
    estimated-vs-actual records with q-errors.

    Pairing mirrors [Exec_plan.of_physical]: a `TRANSFER^M` plan node
    absorbs its whole DBMS-resident subtree (which executes as one SQL
    statement), and its trace children are the middleware pipelines
    feeding `TRANSFER^D` temp tables; every other middleware operator
    maps 1:1.  Estimates are re-derived from the statistics environment
    at each node, actuals come from the instrumented cursors. *)

open Tango_algebra
open Tango_stats
open Tango_cost
open Tango_volcano
module Trace = Tango_obs.Trace
module Json = Tango_obs.Json

let q_error ?(floor = 1.0) ~est ~actual () =
  let floor = Float.max floor 1e-9 in
  let e = Float.max floor est and a = Float.max floor actual in
  Float.max (e /. a) (a /. e)

type record = {
  operator : string;
  depth : int;
  fingerprint : string;
  est_rows : float;
  act_rows : int;
  est_bytes : float;
  act_bytes : float;
  est_us : float;
  act_us : float;
  est_self_us : float;
  act_self_us : float;
  est_pages : float;
  act_pages : int;
  est_roundtrips : float;
  act_roundtrips : int;
  q_rows : float;
  q_cost : float;
  q_self : float;
}

type report = {
  records : record list;
  fingerprint : string;
  mean_q_rows : float;
  mean_q_cost : float;
  max_q_rows : float;
  max_q_cost : float;
  total_est_us : float;
  total_act_us : float;
  observations : Calibrate.observation list;
}

(* ------------------------------------------------------------------ *)
(* Pairing the plan with the trace                                      *)
(* ------------------------------------------------------------------ *)

(* The children a plan node has in the executed pipeline (and hence in
   the trace): TRANSFER^M's children are the middleware sources of its
   TRANSFER^D dependencies; everything else is structural. *)
let paired_children (p : Physical.plan) : Physical.plan list =
  match (p.Physical.algorithm, p.Physical.children) with
  | (Physical.Transfer_m_algo | Physical.Scatter_gather_m), [ db_child ] ->
      List.filter_map
        (fun (td : Physical.plan) ->
          match td.Physical.children with [ mw ] -> Some mw | _ -> None)
        (Physical.collect_tds db_child)
  | (Physical.Transfer_m_algo | Physical.Scatter_gather_m), _ -> []
  | _ -> p.Physical.children

let rec zip xs ys =
  match (xs, ys) with
  | x :: xs, y :: ys -> (x, y) :: zip xs ys
  | _ -> []

let attr_i span name = Option.value ~default:0 (Trace.attr_int span name)

(* Measured time attributed to one cost coefficient, with the formula's
   other (known) terms stripped using the current factors — the same
   residual scheme the probe fits use.  Returns (factor, x, t). *)
let observation_of ~(factors : Factors.t) (p : Physical.plan) ~in_bytes
    ~out_bytes ~self_us : Calibrate.observation option =
  let residual raw t = Float.max (0.05 *. raw) t in
  let obs factor x elapsed_us =
    if x > 0.0 && elapsed_us > 0.0 then
      Some { Calibrate.factor; x; elapsed_us }
    else None
  in
  match p.Physical.algorithm with
  | Physical.Transfer_m_algo | Physical.Scatter_gather_m ->
      (* the whole time — wire plus the DBMS statement below it — goes to
         the transfer factor; splitting it is the paper's "interesting
         challenge" *)
      obs "p_tm" out_bytes self_us
  | Physical.Sort_m ->
      obs "p_sortm" (in_bytes *. Formulas.sort_levels ~size:in_bytes) self_us
  | Physical.Filter_m ->
      let terms =
        match p.Physical.op with
        | Op.Select { pred; _ } -> Formulas.predicate_coefficient pred
        | _ -> 1.0
      in
      obs "p_sem" (terms *. in_bytes) self_us
  | Physical.Project_m -> obs "p_pm" in_bytes self_us
  | Physical.Merge_join_m ->
      obs "p_mjm1" in_bytes
        (residual self_us (self_us -. (factors.Factors.p_mjm2 *. out_bytes)))
  | Physical.Tjoin_m ->
      obs "p_tjm1" in_bytes
        (residual self_us (self_us -. (factors.Factors.p_tjm2 *. out_bytes)))
  | Physical.Taggr_m ->
      obs "p_taggm1" in_bytes
        (residual self_us
           (self_us
           -. Formulas.sort_m factors ~size:in_bytes
           -. (factors.Factors.p_taggm2 *. out_bytes)))
  | _ -> None

let analyze ~(stats_env : Derive.env) ~(factors : Factors.t)
    ?(row_prefetch = 10) ?(page_size = 4096) (plan : Physical.plan)
    (span : Trace.span) : report =
  let records = ref [] in
  let observations = ref [] in
  let rec walk depth (p : Physical.plan) (s : Trace.span) =
    let pairs = zip (paired_children p) s.Trace.children in
    let est_stats =
      try Some (Derive.derive stats_env p.Physical.op) with _ -> None
    in
    let est_rows =
      match est_stats with Some st -> st.Rel_stats.card | None -> 0.0
    in
    let est_bytes =
      match est_stats with Some st -> Rel_stats.size st | None -> 0.0
    in
    let act_rows = attr_i s "tuples" in
    let act_bytes = float_of_int (attr_i s "bytes") in
    let act_us = s.Trace.elapsed_us in
    let est_us = p.Physical.total_cost in
    let child_act =
      List.fold_left
        (fun acc (_, (cs : Trace.span)) -> acc +. cs.Trace.elapsed_us)
        0.0 pairs
    in
    let est_self_us = p.Physical.own_cost in
    let act_self_us = Float.max 0.0 (act_us -. child_act) in
    let in_bytes =
      match pairs with
      | [] -> act_bytes (* leaf transfer: its own output feeds nothing below *)
      | _ ->
          List.fold_left
            (fun acc (_, (cs : Trace.span)) ->
              acc +. float_of_int (attr_i cs "bytes"))
            0.0 pairs
    in
    let is_transfer =
      match p.Physical.algorithm with
      | Physical.Transfer_m_algo | Physical.Scatter_gather_m -> true
      | _ -> false
    in
    let est_pages = if is_transfer then est_bytes /. float_of_int page_size else 0.0 in
    let est_roundtrips =
      if is_transfer then
        Float.of_int (int_of_float (ceil (est_rows /. float_of_int (max 1 row_prefetch)))) +. 1.0
      else 0.0
    in
    let record =
      {
        operator = Physical.algorithm_name p.Physical.algorithm;
        depth;
        fingerprint = Physical.fingerprint p;
        est_rows;
        act_rows;
        est_bytes;
        act_bytes;
        est_us;
        act_us;
        est_self_us;
        act_self_us;
        est_pages;
        act_pages = attr_i s "page_reads";
        est_roundtrips;
        act_roundtrips = attr_i s "roundtrips";
        q_rows = q_error ~est:est_rows ~actual:(float_of_int act_rows) ();
        q_cost = q_error ~est:est_us ~actual:act_us ();
        q_self = q_error ~est:est_self_us ~actual:act_self_us ();
      }
    in
    records := record :: !records;
    (match
       observation_of ~factors p ~in_bytes ~out_bytes:act_bytes
         ~self_us:act_self_us
     with
    | Some o -> observations := o :: !observations
    | None -> ());
    List.iter (fun (c, cs) -> walk (depth + 1) c cs) pairs
  in
  walk 0 plan span;
  let records = List.rev !records in
  let n = Float.max 1.0 (float_of_int (List.length records)) in
  let fold f init = List.fold_left f init records in
  {
    records;
    fingerprint = Physical.fingerprint plan;
    mean_q_rows = fold (fun a r -> a +. r.q_rows) 0.0 /. n;
    mean_q_cost = fold (fun a r -> a +. r.q_cost) 0.0 /. n;
    max_q_rows = fold (fun a r -> Float.max a r.q_rows) 1.0;
    max_q_cost = fold (fun a r -> Float.max a r.q_cost) 1.0;
    total_est_us = plan.Physical.total_cost;
    total_act_us = span.Trace.elapsed_us;
    observations = List.rev !observations;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let render ppf (r : report) =
  Fmt.pf ppf
    "plan %s: estimated %.1f ms, actual %.1f ms (q-error: rows mean %.2f max \
     %.2f, cost mean %.2f max %.2f)@."
    r.fingerprint
    (r.total_est_us /. 1000.0)
    (r.total_act_us /. 1000.0)
    r.mean_q_rows r.max_q_rows r.mean_q_cost r.max_q_cost;
  List.iter
    (fun rec_ ->
      Fmt.pf ppf
        "%s%-14s rows %7.0f/%-7d q=%-6.2f  time %9.2f/%-9.2f ms q=%-6.2f%s@."
        (String.make (2 * rec_.depth) ' ')
        rec_.operator rec_.est_rows rec_.act_rows rec_.q_rows
        (rec_.est_us /. 1000.0)
        (rec_.act_us /. 1000.0)
        rec_.q_cost
        (if rec_.act_pages > 0 || rec_.act_roundtrips > 0 then
           Fmt.str "  pages %.0f/%d rt %.0f/%d" rec_.est_pages rec_.act_pages
             rec_.est_roundtrips rec_.act_roundtrips
         else ""))
    r.records

let to_string r = Fmt.str "%a" render r
