(* Tests for the Tango_profile subsystem: q-error math, plan-fragment
   fingerprint stability, the feedback store, the regression sentinel,
   adaptive refitting, and the end-to-end analysis field on middleware
   reports. *)

open Tango_rel
open Tango_algebra
open Tango_core
open Tango_workload
open Tango_profile

module Ast = Tango_sql.Ast
module Physical = Tango_volcano.Physical

(* ---------------- q-error ---------------- *)

let test_q_error () =
  Alcotest.(check (float 1e-9)) "perfect" 1.0
    (Analyze.q_error ~est:42.0 ~actual:42.0 ());
  Alcotest.(check (float 1e-9)) "2x over" 2.0
    (Analyze.q_error ~est:10.0 ~actual:5.0 ());
  Alcotest.(check (float 1e-9)) "symmetric" 2.0
    (Analyze.q_error ~est:5.0 ~actual:10.0 ());
  (* the floor keeps empty results from exploding the metric *)
  Alcotest.(check (float 1e-9)) "both zero" 1.0
    (Analyze.q_error ~est:0.0 ~actual:0.0 ());
  Alcotest.(check (float 1e-9)) "zero actual, floored" 7.0
    (Analyze.q_error ~est:7.0 ~actual:0.0 ());
  Alcotest.(check (float 1e-9)) "custom floor" 3.5
    (Analyze.q_error ~floor:2.0 ~est:7.0 ~actual:0.0 ())

(* ---------------- fingerprints ---------------- *)

let scan ?alias () = Op.scan ?alias "POSITION" Uis.position_schema

let sel ?alias ~value base =
  Op.select
    (Ast.Binop
       (Ast.Lt, Ast.Col (alias, "PosID"), Ast.Lit (Value.Int value)))
    base

let test_fingerprint_alias_insensitive () =
  (* the same query under different table aliases is the same fragment *)
  let a = sel ~alias:"A" ~value:10 (scan ~alias:"A" ()) in
  let b = sel ~alias:"B" ~value:10 (scan ~alias:"B" ()) in
  Alcotest.(check string) "alias renames do not change the fingerprint"
    (Physical.op_fingerprint a) (Physical.op_fingerprint b)

let test_fingerprint_strips_literals () =
  (* different constants of a parameterized query share a fingerprint *)
  let a = sel ~value:10 (scan ()) in
  let b = sel ~value:99 (scan ()) in
  Alcotest.(check string) "literals are stripped"
    (Physical.op_fingerprint a) (Physical.op_fingerprint b)

let test_fingerprint_distinguishes_shapes () =
  let plain = scan () in
  let filtered = sel ~value:10 (scan ()) in
  Alcotest.(check bool) "select vs scan differ" true
    (Physical.op_fingerprint plain <> Physical.op_fingerprint filtered);
  let other = Op.scan "EMPLOYEE" Uis.employee_schema in
  Alcotest.(check bool) "different tables differ" true
    (Physical.op_fingerprint plain <> Physical.op_fingerprint other)

(* ---------------- sentinel ---------------- *)

let test_sentinel_regression () =
  let s = Sentinel.create () in
  (* establish a best plan *)
  ignore
    (Sentinel.observe s ~fingerprint:"q" ~signature:"planA" ~elapsed_us:100.0);
  Alcotest.(check bool) "best recorded" true
    (Sentinel.best s "q" = Some ("planA", 100.0));
  (* same plan slower: variance, not a regression *)
  let ev =
    Sentinel.observe s ~fingerprint:"q" ~signature:"planA" ~elapsed_us:400.0
  in
  Alcotest.(check int) "same plan never regresses" 0 (List.length ev);
  (* different plan, under the ratio: fine *)
  let ev =
    Sentinel.observe s ~fingerprint:"q" ~signature:"planB" ~elapsed_us:140.0
  in
  Alcotest.(check int) "within ratio" 0 (List.length ev);
  (* different plan, past the ratio: regression *)
  let ev =
    Sentinel.observe s ~fingerprint:"q" ~signature:"planB" ~elapsed_us:400.0
  in
  (match ev with
  | [ Sentinel.Regression { best_signature; chosen_signature; best_us; _ } ] ->
      Alcotest.(check string) "best plan named" "planA" best_signature;
      Alcotest.(check string) "chosen plan named" "planB" chosen_signature;
      Alcotest.(check (float 1e-9)) "best latency" 100.0 best_us
  | _ -> Alcotest.fail "expected one Regression event");
  (* a faster run improves the best *)
  ignore
    (Sentinel.observe s ~fingerprint:"q" ~signature:"planB" ~elapsed_us:50.0);
  Alcotest.(check bool) "best advanced" true
    (Sentinel.best s "q" = Some ("planB", 50.0));
  (* separate queries do not interact *)
  let ev =
    Sentinel.observe s ~fingerprint:"other" ~signature:"planZ"
      ~elapsed_us:9999.0
  in
  Alcotest.(check int) "fresh query never regresses" 0 (List.length ev)

(* ---------------- feedback store + adaptation ---------------- *)

let run_profiled mw sql =
  match (Middleware.query mw sql).Middleware.analysis with
  | Some a -> a
  | None -> Alcotest.fail "profiling enabled but no analysis on the report"

let setup ?(config = Middleware.Config.default) () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let config = Middleware.Config.with_roundtrip_spin 0 config in
  Middleware.connect ~config db

let test_feedback_store_accumulates () =
  let mw =
    setup ~config:Middleware.Config.(default |> with_profiling true) ()
  in
  let a1 = run_profiled mw Queries.q1_sql in
  let a2 = run_profiled mw Queries.q1_sql in
  Alcotest.(check string) "stable plan fingerprint" a1.Analyze.fingerprint
    a2.Analyze.fingerprint;
  let store = Middleware.profile_store mw in
  Alcotest.(check int) "two queries recorded" 2 (Feedback.queries store);
  (* every fragment of the analyzed plan is aggregated with 2 executions *)
  List.iter
    (fun (r : Analyze.record) ->
      match Feedback.find store r.Analyze.fingerprint with
      | Some s ->
          Alcotest.(check int)
            (r.Analyze.operator ^ " executions")
            2 s.Feedback.executions;
          Alcotest.(check bool) "q >= 1" true (s.Feedback.mean_q_cost >= 1.0)
      | None -> Alcotest.fail ("fragment not aggregated: " ^ r.Analyze.operator))
    a1.Analyze.records;
  Alcotest.(check bool) "observations collected" true
    (Feedback.observations store <> [])

let test_analysis_report_sanity () =
  let mw =
    setup ~config:Middleware.Config.(default |> with_profiling true) ()
  in
  let a = run_profiled mw Queries.q1_sql in
  Alcotest.(check bool) "has per-operator records" true
    (List.length a.Analyze.records > 1);
  let root = List.hd a.Analyze.records in
  Alcotest.(check int) "root at depth 0" 0 root.Analyze.depth;
  List.iter
    (fun (r : Analyze.record) ->
      Alcotest.(check bool) (r.Analyze.operator ^ " q_rows >= 1") true
        (r.Analyze.q_rows >= 1.0);
      Alcotest.(check bool) (r.Analyze.operator ^ " q_cost >= 1") true
        (r.Analyze.q_cost >= 1.0))
    a.Analyze.records;
  (* the transfer operator carries roundtrip accounting *)
  Alcotest.(check bool) "a transfer with roundtrips" true
    (List.exists
       (fun (r : Analyze.record) ->
         r.Analyze.operator = "TRANSFER^M" && r.Analyze.act_roundtrips > 0
         && r.Analyze.est_roundtrips > 0.0)
       a.Analyze.records);
  (* rendering works and mentions every operator *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let txt = Analyze.to_string a in
  List.iter
    (fun (r : Analyze.record) ->
      Alcotest.(check bool) ("render mentions " ^ r.Analyze.operator) true
        (contains txt r.Analyze.operator))
    a.Analyze.records

let test_profiling_off_no_analysis () =
  let mw = setup () in
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "no analysis by default" true
    (r.Middleware.analysis = None);
  Alcotest.(check int) "store untouched" 0
    (Feedback.queries (Middleware.profile_store mw))

let test_adaptive_refit_triggers () =
  let mw =
    setup ~config:Middleware.Config.(default |> with_adaptive_costs true) ()
  in
  (* make the cost model wildly optimistic about transfers so the
     misestimation threshold is certainly crossed *)
  let factors = Middleware.factors mw in
  ignore (Tango_cost.Factors.set_by_name factors "p_tm" 1e-6);
  let before = Tango_cost.Factors.get_by_name factors "p_tm" in
  ignore (Middleware.query mw Queries.q1_sql);
  (* the perturbed factor shows in the transfer's self-cost q-error,
     whatever the DBMS work below the transfer costs *)
  (match List.assoc_opt "p_tm" (Feedback.factor_q (Middleware.profile_store mw)) with
  | Some (_, q) ->
      Alcotest.(check bool) "p_tm misestimate above the refit threshold" true
        (q >= Adapt.q_threshold)
  | None -> Alcotest.fail "no p_tm evidence");
  for _ = 2 to 4 do
    ignore (Middleware.query mw Queries.q1_sql)
  done;
  let after = Tango_cost.Factors.get_by_name factors "p_tm" in
  (match (before, after) with
  | Some b, Some a ->
      Alcotest.(check bool) "p_tm refitted upward" true (a > b)
  | _ -> Alcotest.fail "factor lookup failed");
  (* the refit cleared the evidence window (queries counter restarted) *)
  Alcotest.(check bool) "window cleared after refit" true
    (Feedback.queries (Middleware.profile_store mw) < 4)

let test_adapt_noop_when_accurate () =
  (* synthetic store where estimates are perfect: no refit *)
  let store = Feedback.create () in
  let factors = Tango_cost.Factors.default () in
  let report =
    {
      Analyze.records = [];
      fingerprint = "x";
      mean_q_rows = 1.0;
      mean_q_cost = 1.0;
      max_q_rows = 1.0;
      max_q_cost = 1.0;
      total_est_us = 1.0;
      total_act_us = 1.0;
      observations = [];
    }
  in
  Feedback.record store report;
  Alcotest.(check bool) "no refit on empty evidence" true
    (Adapt.maybe_refit store ~factors = None)

(* A refit clears only the refitted factor's evidence.  One synthetic
   query runs three SORT^M (p_sortm reaches [min_samples] and refits) and
   two badly misestimated TRANSFER^M (p_tm is one sample short): p_tm must
   keep its two samples and refit after one more. *)
let test_refit_keeps_other_factors () =
  let store = Feedback.create () in
  let factors = Tango_cost.Factors.default () in
  let record operator q =
    {
      Analyze.operator;
      depth = 0;
      fingerprint = operator;
      est_rows = 1.0;
      act_rows = 1;
      est_bytes = 1.0;
      act_bytes = 1.0;
      est_us = 1.0;
      act_us = q;
      est_self_us = 1.0;
      act_self_us = q;
      est_pages = 0.0;
      act_pages = 0;
      est_roundtrips = 0.0;
      act_roundtrips = 0;
      q_rows = 1.0;
      q_cost = q;
      q_self = q;
    }
  in
  let obs factor = { Tango_cost.Calibrate.factor; x = 100.0; elapsed_us = 1000.0 } in
  let query records factor_names =
    Feedback.record store
      {
        Analyze.records;
        fingerprint = "q";
        mean_q_rows = 1.0;
        mean_q_cost = 1.0;
        max_q_rows = 1.0;
        max_q_cost = 1.0;
        total_est_us = 1.0;
        total_act_us = 1.0;
        observations = List.map obs factor_names;
      }
  in
  query
    [ record "SORT^M" 10.0; record "SORT^M" 10.0; record "SORT^M" 10.0;
      record "TRANSFER^M" 30.0; record "TRANSFER^M" 30.0 ]
    [ "p_sortm"; "p_sortm"; "p_sortm"; "p_tm"; "p_tm" ];
  Alcotest.(check (option (list string))) "p_sortm refits" (Some [ "p_sortm" ])
    (Adapt.maybe_refit store ~factors);
  let factor_q = Feedback.factor_q store in
  Alcotest.(check (option int)) "p_tm keeps its two samples" (Some 2)
    (Option.map fst (List.assoc_opt "p_tm" factor_q));
  Alcotest.(check (option int)) "p_sortm evidence cleared" None
    (Option.map fst (List.assoc_opt "p_sortm" factor_q));
  Alcotest.(check (list string)) "only p_tm observations remain"
    [ "p_tm"; "p_tm" ]
    (List.map
       (fun (o : Tango_cost.Calibrate.observation) -> o.Tango_cost.Calibrate.factor)
       (Feedback.observations store));
  query [ record "TRANSFER^M" 30.0 ] [ "p_tm" ];
  Alcotest.(check (option (list string))) "p_tm refits on its third sample"
    (Some [ "p_tm" ])
    (Adapt.maybe_refit store ~factors)

(* ---------------- per-node byte accounting ---------------- *)

(* The root node's bytes are the result's, and a fully drained sort node
   reports its child's bytes: the counts the analysis reads are exact. *)
let test_exact_bytes () =
  let config = Middleware.Config.(default |> with_profiling true |> with_roundtrip_spin 0) in
  let sorts_checked = ref 0 in
  let check mw label =
    List.iter
      (fun (name, sql) ->
        let r = Middleware.query mw sql in
        let name = Printf.sprintf "%s, %s" name label in
        let result_bytes =
          Array.fold_left
            (fun acc t -> acc + Tuple.byte_size t)
            0 (Relation.tuples r.Middleware.result)
        in
        Alcotest.(check int) (name ^ ": root bytes = result bytes") result_bytes
          (int_of_float r.Middleware.exec.Tango_core.Exec_plan.out_bytes);
        Exec_plan.iter
          (fun (n : Exec_plan.node) ->
            match (n.Exec_plan.kind, Exec_plan.children n) with
            | (Exec_plan.Sort _ | Exec_plan.Sort_noop _), [ c ]
              when n.Exec_plan.out_tuples = c.Exec_plan.out_tuples ->
                incr sorts_checked;
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "%s: %s bytes = its child's" name (Exec_plan.kind_name n))
                  c.Exec_plan.out_bytes n.Exec_plan.out_bytes
            | _ -> ())
          r.Middleware.exec)
      [
        ("Query 1", Queries.q1_sql);
        ("Query 2", Queries.q2_sql ~period_end:"1997-01-01");
        ("Query 3", Queries.q3_sql ~start_bound:"1996-01-01");
        ("Query 4", Queries.q4_sql);
      ]
  in
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  check (Middleware.connect ~config db) "one shard";
  check
    (Middleware.connect_topology ~config
       (Uis.load_sharded ~scale:0.005 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()))
    "two shards";
  Alcotest.(check bool) "some sort node checked" true (!sorts_checked > 0)

let () =
  Alcotest.run "profile"
    [
      ( "q-error",
        [ Alcotest.test_case "definition" `Quick test_q_error ] );
      ( "fingerprint",
        [
          Alcotest.test_case "alias insensitive" `Quick
            test_fingerprint_alias_insensitive;
          Alcotest.test_case "literals stripped" `Quick
            test_fingerprint_strips_literals;
          Alcotest.test_case "shapes distinguished" `Quick
            test_fingerprint_distinguishes_shapes;
        ] );
      ( "sentinel",
        [
          Alcotest.test_case "plan regression" `Quick test_sentinel_regression;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "store accumulates" `Quick
            test_feedback_store_accumulates;
          Alcotest.test_case "analysis sanity" `Quick
            test_analysis_report_sanity;
          Alcotest.test_case "off by default" `Quick
            test_profiling_off_no_analysis;
          Alcotest.test_case "adaptive refit" `Quick
            test_adaptive_refit_triggers;
          Alcotest.test_case "no-op when accurate" `Quick
            test_adapt_noop_when_accurate;
          Alcotest.test_case "refit keeps other factors' evidence" `Quick
            test_refit_keeps_other_factors;
        ] );
      ( "bytes",
        [ Alcotest.test_case "exact per-node bytes" `Quick test_exact_bytes ] );
    ]
