(** The feedback store: per-fragment misestimation aggregates plus a
    bounded window of refit observations.  See the mli for the model.

    The aggregate tables and the observation window are guarded by the
    instance's lock. *)

open Tango_cost
module Json = Tango_obs.Json

type stats = {
  operator : string;
  executions : int;
  mean_q_rows : float;
  mean_q_cost : float;
  max_q_rows : float;
  max_q_cost : float;
  mean_act_us : float;
}

type agg = {
  op_name : string;
  mutable executions : int;
  mutable sum_q_rows : float;
  mutable sum_q_cost : float;
  mutable max_q_rows : float;
  mutable max_q_cost : float;
  mutable sum_act_us : float;
}

type t = {
  lock : Mutex.t;  (* guards the tables and every mutable field *)
  frags : (string, agg) Hashtbl.t;  (* fragment fingerprint -> aggregate *)
  factors : (string, agg) Hashtbl.t;  (* cost factor -> aggregate *)
  mutable observations : Calibrate.observation list;  (* newest first *)
  mutable n_obs : int;
  mutable queries : int;
}

(* Bounds the refit window; the oldest observations are dropped first. *)
let max_observations = 1024

let create () : t =
  {
    lock = Mutex.create ();
    frags = Hashtbl.create 64;
    factors = Hashtbl.create 16;
    observations = [];
    n_obs = 0;
    queries = 0;
  }

(* The cost factor that prices each middleware operator — the grouping
   under which misestimates trigger a refit. *)
let factor_of_operator = function
  | "TRANSFER^M" -> Some "p_tm"
  | "SORT^M" -> Some "p_sortm"
  | "FILTER^M" -> Some "p_sem"
  | "PROJECT^M" -> Some "p_pm"
  | "MERGEJOIN^M" -> Some "p_mjm1"
  | "TJOIN^M" -> Some "p_tjm1"
  | "TAGGR^M" -> Some "p_taggm1"
  | _ -> None

(* Only called with the owning store's lock held. *)
let get_agg table key op_name =
  match Hashtbl.find_opt table key with
  | Some a -> a
  | None ->
      let a =
        {
          op_name;
          executions = 0;
          sum_q_rows = 0.0;
          sum_q_cost = 0.0;
          max_q_rows = 1.0;
          max_q_cost = 1.0;
          sum_act_us = 0.0;
        }
      in
      Hashtbl.replace table key a;
      a

(* Only called with the owning store's lock held. *)
let fold_record (a : agg) ~q_cost (r : Analyze.record) =
  a.executions <- a.executions + 1;
  a.sum_q_rows <- a.sum_q_rows +. r.Analyze.q_rows;
  a.sum_q_cost <- a.sum_q_cost +. q_cost;
  a.max_q_rows <- Float.max a.max_q_rows r.Analyze.q_rows;
  a.max_q_cost <- Float.max a.max_q_cost q_cost;
  a.sum_act_us <- a.sum_act_us +. r.Analyze.act_us

let record (t : t) (report : Analyze.report) =
  Mutex.protect t.lock (fun () ->
      t.queries <- t.queries + 1;
      List.iter
        (fun (r : Analyze.record) ->
          fold_record
            (get_agg t.frags r.Analyze.fingerprint r.Analyze.operator)
            ~q_cost:r.Analyze.q_cost r;
          (* a factor prices only its operator's own term: judge it by the
             self-cost q-error, which the inputs' costs cannot dilute *)
          match factor_of_operator r.Analyze.operator with
          | Some f ->
              fold_record
                (get_agg t.factors f r.Analyze.operator)
                ~q_cost:r.Analyze.q_self r
          | None -> ())
        report.Analyze.records;
      t.observations <-
        List.rev_append report.Analyze.observations t.observations;
      t.n_obs <- t.n_obs + List.length report.Analyze.observations;
      if t.n_obs > max_observations then begin
        (* drop the oldest (tail of the newest-first list) *)
        t.observations <-
          List.filteri (fun i _ -> i < max_observations) t.observations;
        t.n_obs <- max_observations
      end)

let queries t = Mutex.protect t.lock (fun () -> t.queries)

let stats_of (a : agg) : stats =
  let n = Float.max 1.0 (float_of_int a.executions) in
  {
    operator = a.op_name;
    executions = a.executions;
    mean_q_rows = a.sum_q_rows /. n;
    mean_q_cost = a.sum_q_cost /. n;
    max_q_rows = a.max_q_rows;
    max_q_cost = a.max_q_cost;
    mean_act_us = a.sum_act_us /. n;
  }

let find (t : t) fp =
  Mutex.protect t.lock (fun () ->
      Option.map stats_of (Hashtbl.find_opt t.frags fp))

let factor_q (t : t) : (string * (int * float)) list =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun f a acc ->
          ( f,
            ( a.executions,
              a.sum_q_cost /. Float.max 1.0 (float_of_int a.executions) ) )
          :: acc)
        t.factors [])
  |> List.sort compare

let observations (t : t) =
  Mutex.protect t.lock (fun () -> List.rev t.observations)

let clear_factors (t : t) names =
  Mutex.protect t.lock (fun () ->
      List.iter (Hashtbl.remove t.factors) names;
      t.observations <-
        List.filter
          (fun (o : Calibrate.observation) ->
            not (List.mem o.Calibrate.factor names))
          t.observations;
      t.n_obs <- List.length t.observations;
      t.queries <- 0)
