(* paper_scan: the paper's Queries 1-4, verbatim, in a seeded shuffled
   round-robin over one backend.  After the warm round every query is a
   plan-cache hit, so parse and optimize do almost nothing: DBMS
   execution, TRANSFER^M marshalling and the XXL algorithms (sort,
   temporal aggregation, temporal join) carry the latency. *)

open Tango_core
module Queries = Tango_workload.Queries

let scale = 0.04 (* POSITION 3,354 tuples, EMPLOYEE 1,998 *)

let queries =
  [
    ("q1", Queries.q1_sql, Queries.q1_order);
    ("q2", Queries.q2_sql ~period_end:"1996-01-01", Queries.q2_order);
    ("q3", Queries.q3_sql ~start_bound:"1996-01-01", Queries.q3_order);
    ("q4", Queries.q4_sql, Queries.q4_order);
  ]

(* Rounds of the four queries, each round in a seeded order. *)
let stream ~seed =
  let next = Common.deck (Common.rng ~seed ~salt:1) queries in
  fun () ->
    let cls, sql, _ = next () in
    Inproc.Read (cls, { Replay.sql; params = [] })

let run (params : Common.params) =
  let scale = if params.Common.smoke then Common.smoke_scale else scale in
  (* set-up: load, ANALYZE, connect, and one warm round that fills the
     plan cache; returns the session and each query's plan fingerprint *)
  let setup () =
    let _db, mw = Inproc.session ~scale in
    let plans =
      List.map
        (fun (cls, sql, _) ->
          let r = Middleware.query mw sql in
          (cls, Tango_volcano.Physical.fingerprint r.Middleware.physical))
        queries
    in
    (mw, plans)
  in
  let flips = ref 0 and warm_plans = ref [] in
  (* expected results: each query's all-DBMS plan, computed once *)
  let prepare (mw, plans) =
    warm_plans := plans;
    let expected =
      Common.isolated (fun () ->
          let checker = Middleware.connect ~roundtrip_spin:0 (Middleware.database mw) in
          List.map
            (fun (cls, sql, _) -> (cls, Common.fingerprint (Common.all_dbms checker sql)))
            queries)
    in
    {
      Inproc.mw;
      next_op = stream ~seed:params.Common.seed;
      check =
        (fun _ op report ->
          match op with
          | Inproc.Read (cls, _) ->
              let _, _, order = List.find (fun (c, _, _) -> String.equal c cls) queries in
              let plan = Tango_volcano.Physical.fingerprint report.Middleware.physical in
              if not (String.equal plan (List.assoc cls plans)) then incr flips;
              Common.matches ~order (List.assoc cls expected) report.Middleware.result
          | Inproc.Write _ -> false);
      on_write = ignore;
      stop = ignore;
    }
  in
  let notes () =
    List.map (fun (cls, fp) -> ("plan_" ^ cls, fp)) !warm_plans
    @ [ ("plan_flips", string_of_int !flips) ]
  in
  Inproc.run params ~setup ~prepare ~notes
