(* TANGO benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus the ablations listed in DESIGN.md.

   Experiments (select with --experiment, comma-separated; default all):

     fig8      Query 1 (temporal aggregation), 3 plans x relation sizes
     fig10     Query 2 (aggregation + temporal join), 6 plans x period ends
     fig11a    Query 3 (temporal self-join), 2 plans x start bounds
     fig11b    Query 4 (regular join), 3 plans x relation sizes
     sel       Section 3.3 selectivity: naive vs temporal vs actual
     choice    optimizer plan choice with vs without histograms (Query 2)
     memo      equivalence class / element counts for Queries 1-4
     overhead  middleware optimization time vs execution time
     prefetch  row-prefetch sweep for TRANSFER^M (Section 3.2 remark)
     calib     cost-model quality: default vs calibrated factors
     adapt     est-vs-actual profiling + adaptive recalibration (JSON trajectory)
     obs       per-query traces + global metrics, exported as JSON
     throughput  repeated workload, plan cache on vs off (qps)
     sharding  workload over 1/2/4 time-range shards + pruning smoke
     tail      tail-latency attribution on a skewed 2-shard topology
     micro     Bechamel micro-benchmarks of the core algorithms

   Sizes are scaled down from the paper's 83,857-tuple POSITION by --scale
   (default 0.02) so the full suite runs in minutes; shapes (who wins,
   where crossovers fall) are preserved.  Absolute times are this machine's,
   not the paper's 2001 testbed. *)

open Tango_rel
open Tango_algebra
open Tango_core
open Tango_workload

(* ------------------------------------------------------------------ *)
(* Context                                                              *)
(* ------------------------------------------------------------------ *)

type ctx = {
  scale : float;
  quick : bool;
  factors : Tango_cost.Factors.t;  (* calibrated once, shared *)
  full_position : Relation.t;  (* the scaled "original" POSITION *)
  full_employee : Relation.t;
}

let make_ctx ~scale ~quick =
  let n_pos = max 60 (int_of_float (scale *. float_of_int Uis.position_full_cardinality)) in
  let n_emp = max 40 (int_of_float (scale *. float_of_int Uis.employee_full_cardinality)) in
  Fmt.pr "# scale %.3f: POSITION %d tuples (paper: %d), EMPLOYEE %d (paper: %d)@."
    scale n_pos Uis.position_full_cardinality n_emp Uis.employee_full_cardinality;
  let full_position = Uis.position ~n:n_pos () in
  let full_employee = Uis.employee ~n:n_emp () in
  (* calibrate once against a representative database *)
  Fmt.pr "# calibrating cost factors...@.";
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "POSITION" full_position;
  Tango_dbms.Database.analyze_all db ();
  let mw = Middleware.connect db in
  Middleware.calibrate mw;
  let factors = Middleware.factors mw in
  Fmt.pr "# factors: %a@.@." Tango_cost.Factors.pp factors;
  { scale; quick; factors; full_position; full_employee }

(* Prefix of the full POSITION: the paper's size variants are subsets of
   the original relation. *)
let position_prefix ctx n =
  let tuples = Relation.tuples ctx.full_position in
  let n = min n (Array.length tuples) in
  Relation.make (Relation.schema ctx.full_position) (Array.sub tuples 0 n)

(* A session over a database holding [tables]; adopts calibrated factors. *)
let session ctx tables =
  let db = Tango_dbms.Database.create () in
  List.iter (fun (name, rel) -> Tango_dbms.Database.load_relation db name rel) tables;
  if List.mem_assoc "EMPLOYEE" tables then
    Tango_dbms.Database.create_index db ~clustered:true "EMPLOYEE" "EmpID";
  Tango_dbms.Database.analyze_all db ();
  let mw = Middleware.connect db in
  Middleware.adopt_factors mw ctx.factors;
  (db, mw)

let ms report = report.Middleware.execute_us /. 1000.0

(* Paper size variants, rescaled. *)
let scaled_sizes ctx =
  let full = Relation.cardinality ctx.full_position in
  let variants = Uis.position_variant_cardinalities @ [ Uis.position_full_cardinality ] in
  let sizes =
    List.map
      (fun v ->
        max 40
          (int_of_float
             (float_of_int v /. float_of_int Uis.position_full_cardinality
             *. float_of_int full)))
      variants
  in
  if ctx.quick then List.filteri (fun i _ -> i mod 2 = 0 || i = List.length sizes - 1) sizes
  else sizes

let period_ends ctx =
  let all =
    [ "1984-01-01"; "1986-01-01"; "1988-01-01"; "1990-01-01"; "1992-01-01";
      "1994-01-01"; "1996-01-01"; "1998-01-01"; "2000-01-01" ]
  in
  if ctx.quick then [ "1986-01-01"; "1992-01-01"; "1996-01-01"; "2000-01-01" ]
  else all

let header cols = Fmt.pr "%s@." (String.concat "  " cols)

(* Machine-readable baseline persistence: an experiment may leave a JSON
   payload here; the driver writes it (plus wall time) to
   BENCH_<experiment>.json in --out so CI can diff runs as artifacts. *)
let bench_payload : Tango_obs.Json.t option ref = ref None

(* ------------------------------------------------------------------ *)
(* fig8: Query 1                                                        *)
(* ------------------------------------------------------------------ *)

(* Classify which of the paper's three Query 1 plans the optimizer's choice
   corresponds to. *)
let classify_q1_plan (plan : Tango_volcano.Physical.plan) =
  let open Tango_volcano.Physical in
  let rec any p f = f p || List.exists (fun c -> any c f) p.children in
  if any plan (fun p -> p.algorithm = Taggr_d) then "plan3"
  else if any plan (fun p -> p.algorithm = Sort_d) then "plan1"
  else if any plan (fun p -> p.algorithm = Taggr_m) then "plan2"
  else "other"

let fig8 ctx =
  Fmt.pr "== Figure 8: Query 1 (temporal aggregation), running time [ms] ==@.";
  Fmt.pr "(paper: plans 1-2 in the middleware outperform the all-DBMS plan 3 by up to 10x)@.";
  header [ "size"; "plan1_sortD_taggrM"; "plan2_sortM_taggrM"; "plan3_allDBMS"; "optimizer_picks" ];
  List.iter
    (fun n ->
      let _db, mw = session ctx [ ("POSITION", position_prefix ctx n) ] in
      let run tree = ms (Middleware.run_fixed mw ~required_order:Queries.q1_order tree) in
      let t1 = run (Queries.q1_plan1 ~position:"POSITION" ()) in
      let t2 = run (Queries.q1_plan2 ~position:"POSITION" ()) in
      let t3 = run (Queries.q1_plan3 ~position:"POSITION" ()) in
      let choice =
        let initial =
          Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) Queries.q1_sql
        in
        match (Middleware.optimize mw ~required_order:Queries.q1_order initial).Tango_volcano.Search.plan with
        | Some p -> classify_q1_plan p
        | None -> "none"
      in
      Fmt.pr "%6d  %12.1f  %12.1f  %12.1f  %s@." n t1 t2 t3 choice)
    (scaled_sizes ctx);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* fig10: Query 2                                                       *)
(* ------------------------------------------------------------------ *)

let fig10 ctx =
  Fmt.pr "== Figure 10: Query 2 (aggregation + temporal join), running time [ms] ==@.";
  Fmt.pr "(paper: plans 4-5 suffer from expensive transfers; plan 6 deteriorates as the@.";
  Fmt.pr " window grows; plans 2-3 with the temporal join in the middleware scale best)@.";
  header
    [ "period_end"; "p1_taggrM"; "p2_tjoinM"; "p3_sortM"; "p4_filterM";
      "p5_noreduce"; "p6_allDBMS" ];
  let _db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  List.iter
    (fun period_end ->
      let times =
        List.map
          (fun (_, tree) ->
            ms (Middleware.run_fixed mw ~required_order:Queries.q2_order tree))
          (Queries.q2_plans ~position:"POSITION" ~period_end ())
      in
      Fmt.pr "%s  %s@." period_end
        (String.concat "  " (List.map (Printf.sprintf "%9.1f") times)))
    (period_ends ctx);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* fig11a: Query 3                                                      *)
(* ------------------------------------------------------------------ *)

let fig11a ctx =
  Fmt.pr "== Figure 11(a): Query 3 (temporal self-join), running time [ms] ==@.";
  Fmt.pr "(paper: the middleware join wins once the result outgrows the arguments,@.";
  Fmt.pr " i.e. for later start bounds; the optimizer switches plans accordingly)@.";
  header [ "start_bound"; "plan1_allDBMS"; "plan2_tjoinM"; "optimizer_picks" ];
  let _db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  (* The paper predates the transfer-sharing refinement (our A4 ablation);
     disable it here so plan 2 pays both transfers, as in Figure 11(a). *)
  Middleware.set_config mw
    Middleware.Config.(with_transfer_sharing false (Middleware.config mw));
  let bounds =
    let all = [ "1984-01-01"; "1986-01-01"; "1988-01-01"; "1990-01-01";
                "1992-01-01"; "1994-01-01"; "1996-01-01"; "1998-01-01" ] in
    if ctx.quick then [ "1988-01-01"; "1994-01-01"; "1998-01-01" ] else all
  in
  List.iter
    (fun start_bound ->
      let run tree = ms (Middleware.run_fixed mw ~required_order:Queries.q3_order tree) in
      let t1 = run (Queries.q3_plan1 ~position:"POSITION" ~start_bound ()) in
      let t2 = run (Queries.q3_plan2 ~position:"POSITION" ~start_bound ()) in
      let choice =
        let initial =
          Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw)
            (Queries.q3_sql ~start_bound)
        in
        match (Middleware.optimize mw ~required_order:Queries.q3_order initial).Tango_volcano.Search.plan with
        | Some p ->
            let open Tango_volcano.Physical in
            let rec any q f = f q || List.exists (fun c -> any c f) q.children in
            if any p (fun q -> q.algorithm = Tjoin_m) then "plan2" else "plan1"
        | None -> "none"
      in
      Fmt.pr "%s  %12.1f  %12.1f  %s@." start_bound t1 t2 choice)
    bounds;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* fig11b: Query 4                                                      *)
(* ------------------------------------------------------------------ *)

let fig11b ctx =
  Fmt.pr "== Figure 11(b): Query 4 (regular join), running time [ms] ==@.";
  Fmt.pr "(paper: the DBMS join plans win; plan 1 in the middleware stays competitive,@.";
  Fmt.pr " showing TANGO's run-time overhead is small)@.";
  header [ "size"; "plan1_joinM"; "plan2_DBMS_NL"; "plan3_DBMS_SM"; "optimizer_picks" ];
  List.iter
    (fun n ->
      let db, mw =
        session ctx
          [ ("POSITION", position_prefix ctx n); ("EMPLOYEE", ctx.full_employee) ]
      in
      let run tree = ms (Middleware.run_fixed mw ~required_order:Queries.q4_order tree) in
      let t1 = run (Queries.q4_plan1 ~position:"POSITION" ~employee:"EMPLOYEE" ()) in
      Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Force_nested_loop;
      let t2 = run (Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" ()) in
      Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Force_sort_merge;
      let t3 = run (Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" ()) in
      Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Auto;
      let choice =
        let initial =
          Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) Queries.q4_sql
        in
        match (Middleware.optimize mw ~required_order:Queries.q4_order initial).Tango_volcano.Search.plan with
        | Some p ->
            let open Tango_volcano.Physical in
            let rec any q f = f q || List.exists (fun c -> any c f) q.children in
            if any p (fun q -> q.algorithm = Merge_join_m) then "mw-join" else "dbms-join"
        | None -> "none"
      in
      Fmt.pr "%6d  %11.1f  %12.1f  %12.1f  %s@." n t1 t2 t3 choice)
    (scaled_sizes ctx);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* sel: Section 3.3 selectivity                                         *)
(* ------------------------------------------------------------------ *)

let sel _ctx =
  Fmt.pr "== Section 3.3: selectivity of temporal predicates ==@.";
  Fmt.pr "(paper: 100k tuples, 7-day periods uniform over 1995-2000;@.";
  Fmt.pr " Overlaps(1997-02-01, 1997-02-08): the naive estimate is 24.7%%, a factor@.";
  Fmt.pr " of 40 too high; the temporal estimate lands at ~0.8%%, close to actual)@.";
  let rel = Uniform.generate ~n:100_000 () in
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "R" rel;
  let with_hist = Tango_stats.Collector.collect ~histograms:`All db ~qualifier:"R" "R" in
  let without = Tango_stats.Collector.collect ~histograms:`None db ~qualifier:"R" "R" in
  header [ "window"; "actual%"; "naive%"; "temporal%"; "temporal_hist%" ];
  let windows =
    [ ("1997-02-01", "1997-02-08"); ("1995-06-01", "1995-06-08");
      ("1999-01-01", "1999-03-01"); ("1996-01-01", "1997-01-01");
      ("1997-11-11", "1997-11-12") ]
  in
  List.iter
    (fun (a_s, b_s) ->
      let a = Tango_temporal.Chronon.of_string a_s
      and b = Tango_temporal.Chronon.of_string b_s in
      let pred =
        Tango_sql.Ast.(
          Binop
            ( And,
              Binop (Lt, Col (None, "T1"), Lit (Value.Date b)),
              Binop (Gt, Col (None, "T2"), Lit (Value.Date a)) ))
      in
      let pct x = 100.0 *. x in
      let actual =
        float_of_int (Uniform.actual_overlaps rel ~a ~b) /. 100_000.0
      in
      let naive = Tango_stats.Selectivity.selectivity ~mode:Tango_stats.Selectivity.Naive without pred in
      let temporal = Tango_stats.Selectivity.selectivity ~mode:Tango_stats.Selectivity.Temporal without pred in
      let temporal_h = Tango_stats.Selectivity.selectivity ~mode:Tango_stats.Selectivity.Temporal with_hist pred in
      Fmt.pr "%s..%s  %7.3f  %7.3f  %9.3f  %9.3f@." a_s b_s (pct actual)
        (pct naive) (pct temporal) (pct temporal_h))
    windows;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* choice: histograms and plan choice (Query 2)                         *)
(* ------------------------------------------------------------------ *)

let classify_q2 (plan : Tango_volcano.Physical.plan) =
  let open Tango_volcano.Physical in
  let rec any p f = f p || List.exists (fun c -> any c f) p.children in
  let taggr_m = any plan (fun p -> p.algorithm = Taggr_m) in
  let tjoin_m = any plan (fun p -> p.algorithm = Tjoin_m) in
  match (taggr_m, tjoin_m) with
  | true, true -> "taggrM+tjoinM"
  | true, false -> "taggrM"
  | false, true -> "tjoinM"
  | false, false -> "all-DBMS"

let choice ctx =
  Fmt.pr "== Optimizer choice with vs without histograms (Query 2) ==@.";
  Fmt.pr "(paper: with histograms the optimizer always returned the better plan 2;@.";
  Fmt.pr " without them it misjudged the temporal selection for mid-range windows)@.";
  header
    [ "period_end"; "with_hist"; "without_hist"; "est_ms_h"; "est_ms_noh";
      "selcard_hist"; "selcard_nohist"; "selcard_naive"; "actual" ];
  let db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  List.iter
    (fun period_end ->
      let sql = Queries.q2_sql ~period_end in
      let choose () =
        let initial =
          Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) sql
        in
        match (Middleware.optimize mw ~required_order:Queries.q2_order initial).Tango_volcano.Search.plan with
        | Some p -> (classify_q2 p, p.Tango_volcano.Physical.total_cost /. 1000.0)
        | None -> ("none", nan)
      in
      (* Estimated cardinality of the Query 2 window+payrate selection on
         POSITION, under the three estimation regimes, vs the truth. *)
      let sel_op =
        Op.select (Queries.q2_sel_b ~period_end)
          (Op.scan ~alias:"B" "POSITION" Uis.position_schema)
      in
      let est_card mode hist =
        Middleware.set_config mw
          Middleware.Config.(with_histograms hist (Middleware.config mw));
        Middleware.set_config mw
          Middleware.Config.(with_selectivity_mode mode (Middleware.config mw));
        let env = Middleware.stats_env mw in
        (Tango_stats.Derive.derive env sel_op).Tango_stats.Rel_stats.card
      in
      let card_hist = est_card Tango_stats.Selectivity.Temporal true in
      let card_nohist = est_card Tango_stats.Selectivity.Temporal false in
      let card_naive = est_card Tango_stats.Selectivity.Naive false in
      Middleware.set_config mw
        Middleware.Config.(
          with_selectivity_mode Tango_stats.Selectivity.Temporal
            (Middleware.config mw));
      let actual =
        Relation.cardinality
          (Tango_dbms.Database.query_ast db
             (Tango_sqlgen.Translate.translate sel_op))
      in
      Middleware.set_config mw
    Middleware.Config.(with_histograms true (Middleware.config mw));
      let with_h, est_w = choose () in
      Middleware.set_config mw
    Middleware.Config.(with_histograms false (Middleware.config mw));
      let without_h, est_wo = choose () in
      Middleware.set_config mw
    Middleware.Config.(with_histograms true (Middleware.config mw));
      Fmt.pr "%s  %-14s  %-14s  %8.1f  %8.1f  %8.0f  %8.0f  %8.0f  %6d@."
        period_end with_h without_h est_w est_wo card_hist card_nohist
        card_naive actual)
    (period_ends ctx);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* memo: class/element counts                                           *)
(* ------------------------------------------------------------------ *)

let memo ctx =
  Fmt.pr "== Equivalence classes and elements per query (Section 5.2) ==@.";
  Fmt.pr "(paper, with its rule set: Q1 12/29, Q2 142/452, Q3 104/301, Q4 13/30)@.";
  header [ "query"; "classes"; "elements"; "opt_time[ms]" ];
  let _db, mw =
    session ctx [ ("POSITION", ctx.full_position); ("EMPLOYEE", ctx.full_employee) ]
  in
  List.iter
    (fun (name, sql, order) ->
      let initial =
        Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) sql
      in
      let r = Middleware.optimize mw ~required_order:order initial in
      Fmt.pr "%-8s %8d %9d  %10.1f@." name r.Tango_volcano.Search.classes
        r.Tango_volcano.Search.elements
        (r.Tango_volcano.Search.time_us /. 1000.0))
    [
      ("query1", Queries.q1_sql, Queries.q1_order);
      ("query2", Queries.q2_sql ~period_end:"1996-01-01", Queries.q2_order);
      ("query3", Queries.q3_sql ~start_bound:"1996-01-01", Queries.q3_order);
      ("query4", Queries.q4_sql, Queries.q4_order);
    ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* overhead: optimization vs execution                                  *)
(* ------------------------------------------------------------------ *)

let overhead ctx =
  Fmt.pr "== Middleware overhead: optimization vs execution time [ms] ==@.";
  Fmt.pr "(paper: \"for the tested queries, the middleware optimization overhead@.";
  Fmt.pr " was very small\")@.";
  Fmt.pr "(optimize: the query's first optimization, which also collects the@.";
  Fmt.pr " base-table statistics; warm: median of 5 re-optimizations once the@.";
  Fmt.pr " statistics are cached -- the Volcano search alone)@.";
  header [ "query"; "optimize[ms]"; "warm[ms]"; "execute[ms]"; "overhead%" ];
  let _db, mw =
    session ctx [ ("POSITION", ctx.full_position); ("EMPLOYEE", ctx.full_employee) ]
  in
  List.iter
    (fun (name, sql) ->
      let r = Middleware.query mw sql in
      let o = r.Middleware.optimize_us /. 1000.0 in
      let initial =
        Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) sql
      in
      let required_order = Tango_tsql.Compile.required_order sql in
      let warm =
        List.init 5 (fun _ ->
            (Middleware.optimize mw ~required_order initial).Tango_volcano.Search.time_us
            /. 1000.0)
        |> List.sort Float.compare
        |> fun ts -> List.nth ts 2
      in
      let e = Stdlib.max 0.001 (ms r) in
      Fmt.pr "%-8s %11.1f %8.2f %11.1f %9.1f@." name o warm e (100.0 *. o /. (o +. e)))
    Queries.workload;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* prefetch: row-prefetch sweep (A1)                                    *)
(* ------------------------------------------------------------------ *)

let prefetch ctx =
  Fmt.pr "== Ablation: JDBC-style row-prefetch and TRANSFER^M [ms] ==@.";
  Fmt.pr "(paper Section 3.2: performance is \"affected by the row-prefetch setting\")@.";
  header [ "row_prefetch"; "transfer_ms"; "roundtrips" ];
  List.iter
    (fun pf ->
      let db = Tango_dbms.Database.create () in
      Tango_dbms.Database.load_relation db "POSITION" ctx.full_position;
      Tango_dbms.Database.analyze_all db ();
      let mw = Middleware.connect ~row_prefetch:pf db in
      Middleware.adopt_factors mw ctx.factors;
      let tree = Op.to_mw (Op.scan "POSITION" Uis.position_schema) in
      let r = Middleware.run_fixed mw tree in
      Fmt.pr "%12d  %10.1f  %10d@." pf (ms r)
        (Tango_dbms.Backend.roundtrips (Middleware.primary mw)))
    [ 1; 2; 5; 10; 25; 50; 100; 250 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* calib: does calibration improve the cost model? (A2)                 *)
(* ------------------------------------------------------------------ *)

let calib ctx =
  Fmt.pr "== Ablation: cost-model quality, default vs calibrated factors ==@.";
  Fmt.pr "(does the cheapest-estimated plan coincide with the fastest-measured one?)@.";
  header [ "query"; "variant"; "est_best"; "measured_best"; "agree" ];
  let _db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  let default_factors = Tango_cost.Factors.default () in
  let best xs =
    fst
      (List.fold_left
         (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
         ("?", infinity) xs)
  in
  let eval_set name plans order =
    let measured =
      List.map
        (fun (pname, tree) ->
          (pname, ms (Middleware.run_fixed mw ~required_order:order tree)))
        plans
    in
    let measured_best = best measured in
    List.iter
      (fun (variant, factors) ->
        let estimates =
          List.map
            (fun (pname, tree) ->
              match
                Tango_volcano.Search.cost_plan ~factors
                  ~stats_env:(Middleware.stats_env mw) ~required_order:order tree
              with
              | Some p -> (pname, p.Tango_volcano.Physical.total_cost)
              | None -> (pname, infinity))
            plans
        in
        let est_best = best estimates in
        Fmt.pr "%-8s %-11s %-18s %-18s %b@." name variant est_best measured_best
          (String.equal est_best measured_best))
      [ ("default", default_factors); ("calibrated", ctx.factors) ]
  in
  eval_set "query1" (Queries.q1_plans ~position:"POSITION" ()) Queries.q1_order;
  eval_set "query3"
    (Queries.q3_plans ~position:"POSITION" ~start_bound:"1996-01-01" ())
    Queries.q3_order;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* sharing: the paper's sec-7 single-T^M refinement (A4)                *)
(* ------------------------------------------------------------------ *)

let sharing ctx =
  Fmt.pr "== Ablation: transfer sharing (paper sec. 7: \"issue only one T^M\") ==@.";
  Fmt.pr "(Query 3 reads POSITION twice with alpha-equivalent SQL; sharing fetches once)@.";
  header [ "start_bound"; "unshared_ms"; "shared_ms"; "roundtrips_unshared"; "roundtrips_shared" ];
  let _db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  List.iter
    (fun start_bound ->
      let tree = Queries.q3_plan2 ~position:"POSITION" ~start_bound () in
      Middleware.set_config mw
    Middleware.Config.(with_transfer_sharing false (Middleware.config mw));
      Tango_dbms.Backend.reset_meters (Middleware.primary mw);
      let t_un = ms (Middleware.run_fixed mw ~required_order:Queries.q3_order tree) in
      let rt_un = Tango_dbms.Backend.roundtrips (Middleware.primary mw) in
      Middleware.set_config mw
    Middleware.Config.(with_transfer_sharing true (Middleware.config mw));
      Tango_dbms.Backend.reset_meters (Middleware.primary mw);
      let t_sh = ms (Middleware.run_fixed mw ~required_order:Queries.q3_order tree) in
      let rt_sh = Tango_dbms.Backend.roundtrips (Middleware.primary mw) in
      Fmt.pr "%s  %10.1f  %10.1f  %12d  %12d@." start_bound t_un t_sh rt_un rt_sh)
    [ "1990-01-01"; "1996-01-01"; "2000-01-01" ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* adapt: estimated-vs-actual profiling + adaptive recalibration (A5)   *)
(* ------------------------------------------------------------------ *)

(* Perturb the substrate under a calibrated session (a much slower
   simulated network round trip), watch the cost q-error blow up, and
   verify the adaptive recalibration loop shrinks it again.  Emits the
   per-round trajectory as JSON (the CI artifact). *)
let adapt ctx =
  Fmt.pr "== Adaptation: estimated-vs-actual profiling feedback loop ==@.";
  Fmt.pr "(calibrated factors; after round 2 the per-round-trip latency is@.";
  Fmt.pr " perturbed 16x — misestimation triggers a cost-factor refit and@.";
  Fmt.pr " the mean cost q-error of subsequent plans shrinks back)@.";
  header [ "round"; "phase"; "mean_q_cost"; "mean_q_rows"; "p_tm"; "refits" ];
  let _db, mw = session ctx [ ("POSITION", ctx.full_position) ] in
  Middleware.set_config mw
    (Middleware.Config.with_adaptive_costs true (Middleware.config mw));
  let perturb_round = 3 in
  let rounds = if ctx.quick then 8 else 10 in
  let refits0 = Tango_obs.Counter.value Tango_profile.Adapt.refits in
  let trajectory = ref [] in
  let phase_sums = Hashtbl.create 4 in
  for round = 1 to rounds do
    if round = perturb_round then begin
      let c = Middleware.config mw in
      Middleware.set_config mw
        (Middleware.Config.with_roundtrip_spin
           (16 * c.Middleware.Config.roundtrip_spin)
           c)
    end;
    let refits_before = Tango_obs.Counter.value Tango_profile.Adapt.refits in
    let r = Middleware.query mw Queries.q1_sql in
    let refits_after = Tango_obs.Counter.value Tango_profile.Adapt.refits in
    let phase =
      if round < perturb_round then "baseline"
      else if refits_before > refits0 then "adapted"
      else "perturbed"
    in
    match r.Middleware.analysis with
    | None -> Fmt.pr "%5d  %-9s (no analysis)@." round phase
    | Some a ->
        let p_tm = (Middleware.factors mw).Tango_cost.Factors.p_tm in
        let q_cost = a.Tango_profile.Analyze.mean_q_cost in
        let q_rows = a.Tango_profile.Analyze.mean_q_rows in
        Fmt.pr "%5d  %-9s  %11.2f  %11.2f  %8.4f  %6d@." round phase q_cost
          q_rows p_tm (refits_after - refits0);
        let sum, n =
          Option.value ~default:(0.0, 0) (Hashtbl.find_opt phase_sums phase)
        in
        Hashtbl.replace phase_sums phase (sum +. q_cost, n + 1);
        trajectory :=
          Tango_obs.Json.Obj
            [
              ("round", Tango_obs.Json.Int round);
              ("phase", Tango_obs.Json.String phase);
              ("mean_q_cost", Tango_obs.Json.Float q_cost);
              ("mean_q_rows", Tango_obs.Json.Float q_rows);
              ("max_q_cost", Tango_obs.Json.Float a.Tango_profile.Analyze.max_q_cost);
              ("p_tm", Tango_obs.Json.Float p_tm);
              ("execute_us", Tango_obs.Json.Float r.Middleware.execute_us);
              ("refits", Tango_obs.Json.Int (refits_after - refits0));
            ]
          :: !trajectory
  done;
  let phase_mean name =
    match Hashtbl.find_opt phase_sums name with
    | Some (sum, n) when n > 0 -> Some (sum /. float_of_int n)
    | _ -> None
  in
  let jfloat = function
    | Some v -> Tango_obs.Json.Float v
    | None -> Tango_obs.Json.Null
  in
  let perturbed = phase_mean "perturbed" and adapted = phase_mean "adapted" in
  let improved =
    match (perturbed, adapted) with Some p, Some a -> a < p | _ -> false
  in
  let doc =
    Tango_obs.Json.Obj
      [
        ("experiment", Tango_obs.Json.String "adapt");
        ("perturb_round", Tango_obs.Json.Int perturb_round);
        ("rounds", Tango_obs.Json.List (List.rev !trajectory));
        ("mean_q_cost_baseline", jfloat (phase_mean "baseline"));
        ("mean_q_cost_perturbed", jfloat perturbed);
        ("mean_q_cost_adapted", jfloat adapted);
        ("adapted_improves", Tango_obs.Json.Bool improved);
        ( "plan_regressions",
          Tango_obs.Json.Int
            (Tango_obs.Counter.value Tango_profile.Sentinel.plan_regressions) );
      ]
  in
  bench_payload := Some doc;
  Fmt.pr "%s@." (Tango_obs.Json.to_string doc);
  Fmt.pr "# adapted mean q-error %s perturbed mean q-error@.@."
    (if improved then "<" else ">= (ADAPTATION DID NOT IMPROVE)")

(* ------------------------------------------------------------------ *)
(* obs: tracing & metrics export (Tango_obs)                            *)
(* ------------------------------------------------------------------ *)

let obs ctx =
  Fmt.pr "== Observability: per-query traces and middleware metrics (JSON) ==@.";
  Fmt.pr "(the same span tree `tango run --trace` renders, plus the global@.";
  Fmt.pr " metric registry after the workload — both machine-readable)@.";
  let _db, mw =
    session ctx [ ("POSITION", ctx.full_position); ("EMPLOYEE", ctx.full_employee) ]
  in
  Middleware.set_config mw
    (Middleware.Config.with_tracing true (Middleware.config mw));
  Tango_obs.Registry.reset ();
  let traces =
    List.map
      (fun (name, sql) ->
        let r = Middleware.query mw sql in
        let trace =
          match r.Middleware.trace with
          | Some span -> Tango_obs.Trace.to_json span
          | None -> Tango_obs.Json.Null
        in
        Tango_obs.Json.Obj
          [
            ("query", Tango_obs.Json.String name);
            ("rows", Tango_obs.Json.Int (Relation.cardinality r.Middleware.result));
            ("optimize_us", Tango_obs.Json.Float r.Middleware.optimize_us);
            ("execute_us", Tango_obs.Json.Float r.Middleware.execute_us);
            ("trace", trace);
          ])
      [
        ("query1", Queries.q1_sql);
        ("query2", Queries.q2_sql ~period_end:"1996-01-01");
        ("query3", Queries.q3_sql ~start_bound:"1996-01-01");
        ("query4", Queries.q4_sql);
      ]
  in
  let doc =
    Tango_obs.Json.Obj
      [
        ("traces", Tango_obs.Json.List traces);
        ("metrics", Tango_obs.Registry.to_json (Tango_obs.Registry.snapshot ()));
      ]
  in
  bench_payload := Some doc;
  Fmt.pr "%s@.@." (Tango_obs.Json.to_string doc)

(* ------------------------------------------------------------------ *)
(* baseline: per-query wall times + transfer counters (CI artifact)     *)
(* ------------------------------------------------------------------ *)

(* The regression baseline: every workload query warmed once, then timed
   over [runs] repetitions, with the per-run transfer counts read off the
   session's backend meters and the DBMS statement count off a registry
   snapshot diff.  The JSON lands in BENCH_baseline.json so successive CI
   runs can be compared as artifacts. *)
let baseline ctx =
  Fmt.pr "== Baseline: per-query times and transfer counters (JSON artifact) ==@.";
  header
    [ "query"; "optimize[ms]"; "execute[ms]"; "rows"; "roundtrips";
      "tuples_shipped"; "dbms_queries" ];
  let _db, mw =
    session ctx [ ("POSITION", ctx.full_position); ("EMPLOYEE", ctx.full_employee) ]
  in
  let runs = if ctx.quick then 2 else 3 in
  let backends = Tango_dbms.Topology.backends (Middleware.topology mw) in
  let meter m = List.fold_left (fun acc b -> acc + m b) 0 backends in
  let entries =
    List.map
      (fun (name, sql) ->
        ignore (Middleware.query mw sql) (* warm caches and statistics *);
        let before = Tango_obs.Registry.snapshot () in
        let rt0 = meter Tango_dbms.Backend.roundtrips
        and tu0 = meter Tango_dbms.Backend.tuples_shipped in
        let reports = List.init runs (fun _ -> Middleware.query mw sql) in
        let after = Tango_obs.Registry.snapshot () in
        let delta = Tango_obs.Registry.diff after before in
        let per_run n = Tango_obs.Registry.counter_value delta n / runs in
        let mean f =
          List.fold_left (fun acc r -> acc +. f r) 0.0 reports
          /. float_of_int runs
        in
        let optimize_us = mean (fun r -> r.Middleware.optimize_us) in
        let execute_us = mean (fun r -> r.Middleware.execute_us) in
        let rows = Relation.cardinality (List.hd reports).Middleware.result in
        let roundtrips = (meter Tango_dbms.Backend.roundtrips - rt0) / runs in
        let tuples_shipped =
          (meter Tango_dbms.Backend.tuples_shipped - tu0) / runs
        in
        let dbms_queries = per_run "dbms.queries" in
        Fmt.pr "%-8s %11.1f %11.1f %6d %10d %14d %12d@." name
          (optimize_us /. 1000.0) (execute_us /. 1000.0) rows roundtrips
          tuples_shipped dbms_queries;
        Tango_obs.Json.Obj
          [
            ("query", Tango_obs.Json.String name);
            ("rows", Tango_obs.Json.Int rows);
            ("optimize_us", Tango_obs.Json.Float optimize_us);
            ("execute_us", Tango_obs.Json.Float execute_us);
            ("roundtrips", Tango_obs.Json.Int roundtrips);
            ("tuples_shipped", Tango_obs.Json.Int tuples_shipped);
            ("dbms_queries", Tango_obs.Json.Int dbms_queries);
          ])
      Queries.workload
  in
  bench_payload :=
    Some
      (Tango_obs.Json.Obj
         [
           ("runs_per_query", Tango_obs.Json.Int runs);
           ("queries", Tango_obs.Json.List entries);
         ]);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* throughput: plan cache on vs off on the repeated workload            *)
(* ------------------------------------------------------------------ *)

(* Re-submit the whole workload [rounds] times with the plan cache on
   and off.  The cache turns the repeated rounds into hit-path runs (no
   parse, no optimize).  The JSON payload carries the qps of both
   variants plus the speedup ratio the CI perf-smoke gates on.

   Unlike the analytical experiments, the relations here are small fixed
   prefixes (not governed by --scale): the cache amortizes the per-query
   {e fixed} costs (parse, statistics, memo search), so its regime is
   many repetitions of quick queries, not one scan-bound giant. *)
let throughput ctx =
  Fmt.pr "== Throughput: repeated workload, plan cache on vs off ==@.";
  Fmt.pr "(every variant runs one untimed warm round, then %s timed rounds@."
    (if ctx.quick then "5" else "10");
  Fmt.pr " over Queries 1-4; parse+overhead = total - optimize - execute)@.";
  header
    [ "variant"; "qps"; "total[ms]"; "optimize[ms]"; "execute[ms]";
      "parse+overhead[ms]"; "cache_hits" ];
  let rounds = if ctx.quick then 5 else 10 in
  let position = position_prefix ctx 400 in
  let employee =
    let tuples = Relation.tuples ctx.full_employee in
    Relation.make
      (Relation.schema ctx.full_employee)
      (Array.sub tuples 0 (min 200 (Array.length tuples)))
  in
  let variants = [ ("cache-on", true); ("cache-off", false) ] in
  let results =
    List.map
      (fun (name, cache) ->
        let _db, mw =
          session ctx [ ("POSITION", position); ("EMPLOYEE", employee) ]
        in
        (* spin 0: the simulated network latency is identical across the
           variants (the cache preserves round trips), so leaving it in
           only dilutes the middleware effect this experiment measures *)
        Middleware.set_config mw
          Middleware.Config.(
            Middleware.config mw |> with_plan_cache cache
            |> with_roundtrip_spin 0);
        (* warm round: fills the plan cache and the statistics cache so the
           timed rounds measure the steady state of each variant *)
        List.iter (fun (_, sql) -> ignore (Middleware.query mw sql))
          Queries.workload;
        let optimize_us = ref 0.0 and execute_us = ref 0.0 in
        let queries = rounds * List.length Queries.workload in
        let t0 = Tango_obs.mono_us () in
        for _ = 1 to rounds do
          List.iter
            (fun (_, sql) ->
              let r = Middleware.query mw sql in
              optimize_us := !optimize_us +. r.Middleware.optimize_us;
              execute_us := !execute_us +. r.Middleware.execute_us)
            Queries.workload
        done;
        let wall_s = (Tango_obs.mono_us () -. t0) /. 1e6 in
        let qps = float_of_int queries /. wall_s in
        let total_ms = 1000.0 *. wall_s in
        let optimize_ms = !optimize_us /. 1000.0 in
        let execute_ms = !execute_us /. 1000.0 in
        let overhead_ms =
          Stdlib.max 0.0 (total_ms -. optimize_ms -. execute_ms)
        in
        let hits = (Middleware.plan_cache_stats mw).Tango_cache.Plan_cache.hits in
        Fmt.pr "%-12s %8.1f %10.1f %13.1f %12.1f %18.1f %10d@." name qps
          total_ms optimize_ms execute_ms overhead_ms hits;
        ( name,
          Tango_obs.Json.Obj
            [
              ("variant", Tango_obs.Json.String name);
              ("plan_cache", Tango_obs.Json.Bool cache);
              ("rounds", Tango_obs.Json.Int rounds);
              ("queries", Tango_obs.Json.Int queries);
              ("qps", Tango_obs.Json.Float qps);
              ("total_ms", Tango_obs.Json.Float total_ms);
              ("optimize_ms", Tango_obs.Json.Float optimize_ms);
              ("execute_ms", Tango_obs.Json.Float execute_ms);
              ("parse_overhead_ms", Tango_obs.Json.Float overhead_ms);
              ("cache_hits", Tango_obs.Json.Int hits);
            ],
          qps ))
      variants
  in
  let qps_of name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) results with
    | Some (_, _, qps) -> qps
    | None -> nan
  in
  let cache_on = qps_of "cache-on" in
  let cache_off = qps_of "cache-off" in
  let cache_on_beats_cache_off = cache_on > cache_off in
  let doc =
    Tango_obs.Json.Obj
      [
        ("experiment", Tango_obs.Json.String "throughput");
        ( "variants",
          Tango_obs.Json.List (List.map (fun (_, j, _) -> j) results) );
        ("speedup_cache", Tango_obs.Json.Float (cache_on /. cache_off));
        ("cache_on_beats_cache_off", Tango_obs.Json.Bool cache_on_beats_cache_off);
      ]
  in
  bench_payload := Some doc;
  Fmt.pr "%s@." (Tango_obs.Json.to_string doc);
  Fmt.pr "# cache on vs off: %.2fx%s@.@." (cache_on /. cache_off)
    (if cache_on_beats_cache_off then "" else "  (CACHE DID NOT HELP)")

(* ------------------------------------------------------------------ *)
(* param_cache: template cache vs exact cache on a literal-varying      *)
(* OLTP stream                                                          *)
(* ------------------------------------------------------------------ *)

(* An OLTP-style stream of three statement shapes in a skewed 70/20/10
   mix, every submission carrying fresh literals (rotating rate bounds
   and period ends), so the exact literal-keyed cache of PR 5 never
   hits — each spelling is new text — while auto-parameterization folds
   the whole stream onto three templates that hit from the second
   sighting on.  This is the regime the tentpole targets: plan reuse
   must survive literal variation, not just verbatim resubmission.
   The CI perf smoke greps the emitted gate:
   [template_cache_beats_exact_cache] = template hit rate >= 90% while
   the exact cache stays under 10%, at strictly higher qps. *)
let param_cache ctx =
  Fmt.pr "== Param cache: literal-varying OLTP stream, template vs exact ==@.";
  Fmt.pr "(same plan cache underneath; the variants differ only in@.";
  Fmt.pr " auto-parameterization — literal-keyed vs template-keyed entries)@.";
  header
    [ "variant"; "qps"; "total[ms]"; "hits"; "template_hits"; "misses";
      "hit_rate" ];
  let n = if ctx.quick then 150 else 400 in
  let position = position_prefix ctx 400 in
  let date i =
    Tango_temporal.Chronon.to_string
      (Tango_temporal.Chronon.of_string "1980-01-01" + (i * 37 mod 5000))
  in
  let stream =
    List.init n (fun i ->
        match i mod 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
            (* hot shape, 70%: a two-sided rate selection whose bound
               pair (mod 37 x mod 53) never repeats inside the stream *)
            Printf.sprintf
              "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > \
               %d AND PayRate < %d"
              (i mod 37)
              (40 + (i mod 53))
        | 7 | 8 -> Queries.q2_sql ~period_end:(date i)
        | _ -> Queries.q3_sql ~start_bound:(date i))
  in
  let results =
    List.map
      (fun (name, auto) ->
        let _db, mw = session ctx [ ("POSITION", position) ] in
        Middleware.set_config mw
          Middleware.Config.(
            Middleware.config mw |> with_plan_cache true
            |> with_auto_parameterize auto |> with_roundtrip_spin 0);
        let t0 = Tango_obs.mono_us () in
        List.iter (fun sql -> ignore (Middleware.query mw sql)) stream;
        let wall_s = (Tango_obs.mono_us () -. t0) /. 1e6 in
        let s = Middleware.plan_cache_stats mw in
        let hits = s.Tango_cache.Plan_cache.hits in
        let hit_rate = float_of_int hits /. float_of_int n in
        let qps = float_of_int n /. wall_s in
        Fmt.pr "%-14s %8.1f %10.1f %6d %13d %7d %9.2f@." name qps
          (1000.0 *. wall_s) hits s.Tango_cache.Plan_cache.template_hits
          s.Tango_cache.Plan_cache.misses hit_rate;
        ( name,
          Tango_obs.Json.Obj
            [
              ("variant", Tango_obs.Json.String name);
              ("auto_parameterize", Tango_obs.Json.Bool auto);
              ("queries", Tango_obs.Json.Int n);
              ("qps", Tango_obs.Json.Float qps);
              ("total_ms", Tango_obs.Json.Float (1000.0 *. wall_s));
              ("hits", Tango_obs.Json.Int hits);
              ( "template_hits",
                Tango_obs.Json.Int s.Tango_cache.Plan_cache.template_hits );
              ("misses", Tango_obs.Json.Int s.Tango_cache.Plan_cache.misses);
              ("hit_rate", Tango_obs.Json.Float hit_rate);
            ],
          qps,
          hit_rate ))
      [ ("exact-cache", false); ("template-cache", true) ]
  in
  let find name =
    match List.find_opt (fun (n', _, _, _) -> String.equal n' name) results with
    | Some (_, _, qps, rate) -> (qps, rate)
    | None -> (nan, nan)
  in
  let exact_qps, exact_rate = find "exact-cache" in
  let tmpl_qps, tmpl_rate = find "template-cache" in
  let gate = tmpl_rate >= 0.9 && exact_rate <= 0.1 && tmpl_qps > exact_qps in
  let doc =
    Tango_obs.Json.Obj
      [
        ("experiment", Tango_obs.Json.String "param_cache");
        ("queries", Tango_obs.Json.Int n);
        ( "variants",
          Tango_obs.Json.List (List.map (fun (_, j, _, _) -> j) results) );
        ("template_hit_rate", Tango_obs.Json.Float tmpl_rate);
        ("exact_hit_rate", Tango_obs.Json.Float exact_rate);
        ("speedup", Tango_obs.Json.Float (tmpl_qps /. exact_qps));
        ("template_cache_beats_exact_cache", Tango_obs.Json.Bool gate);
      ]
  in
  bench_payload := Some doc;
  Fmt.pr "%s@." (Tango_obs.Json.to_string doc);
  Fmt.pr "# template vs exact: %.2fx qps; hit rates %.2f vs %.2f%s@.@."
    (tmpl_qps /. exact_qps) tmpl_rate exact_rate
    (if gate then "" else "  (TEMPLATE CACHE DID NOT WIN)")

(* ------------------------------------------------------------------ *)
(* sharding: scatter/gather over N backends + partition pruning         *)
(* ------------------------------------------------------------------ *)

(* The workload over 1, 2 and 4 time-range shards of POSITION (quantile
   bounds on T1, EMPLOYEE replicated), with per-backend round trips and
   shipped tuples summed from the backend meters; then a pruning smoke —
   a period-restricted scan must leave the out-of-period shards idle
   while producing the same rows as the single-backend run. *)
let sharding ctx =
  Fmt.pr "== Sharded scatter/gather: workload vs shard count + pruning ==@.";
  Fmt.pr "(POSITION range-partitioned on T1 at the data's quantiles;@.";
  Fmt.pr " EMPLOYEE replicated; counters summed over the backend meters)@.";
  header [ "shards"; "query"; "execute[ms]"; "rows"; "roundtrips"; "tuples_shipped" ];
  let shard_counts = if ctx.quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let connect_n n =
    if n = 1 then begin
      let db = Tango_dbms.Database.create () in
      Uis.load ~scale:ctx.scale db;
      let mw = Middleware.connect ~roundtrip_spin:0 db in
      Middleware.adopt_factors mw ctx.factors;
      mw
    end
    else begin
      let topo =
        Uis.load_sharded ~scale:ctx.scale
          ~roundtrip_spins:(List.init n (fun _ -> 0))
          ~shards:n ()
      in
      let mw = Middleware.connect_topology topo in
      Middleware.adopt_factors mw ctx.factors;
      mw
    end
  in
  let sum f backends = List.fold_left (fun acc b -> acc + f b) 0 backends in
  let by_shard_count =
    List.map
      (fun n ->
        let mw = connect_n n in
        let backends = Tango_dbms.Topology.backends (Middleware.topology mw) in
        (* warm caches and statistics *)
        List.iter (fun (_, sql) -> ignore (Middleware.query mw sql)) Queries.workload;
        let queries =
          List.map
            (fun (qname, sql) ->
              List.iter Tango_dbms.Backend.reset_meters backends;
              let r = Middleware.query mw sql in
              let roundtrips = sum Tango_dbms.Backend.roundtrips backends in
              let tuples = sum Tango_dbms.Backend.tuples_shipped backends in
              Fmt.pr "%6d  %-6s %11.1f %6d %10d %14d@." n qname (ms r)
                (Relation.cardinality r.Middleware.result)
                roundtrips tuples;
              Tango_obs.Json.Obj
                [
                  ("query", Tango_obs.Json.String qname);
                  ( "rows",
                    Tango_obs.Json.Int
                      (Relation.cardinality r.Middleware.result) );
                  ("execute_us", Tango_obs.Json.Float r.Middleware.execute_us);
                  ("roundtrips", Tango_obs.Json.Int roundtrips);
                  ("tuples_shipped", Tango_obs.Json.Int tuples);
                ])
            Queries.workload
        in
        let doc =
          Tango_obs.Json.Obj
            [
              ("shards", Tango_obs.Json.Int n);
              ("queries", Tango_obs.Json.List queries);
            ]
        in
        doc)
      shard_counts
  in
  (* pruning smoke: the UIS skew puts ~65 % of periods at 1995+, so a
     T1 < 1985 restriction excludes the later quantile shards entirely *)
  let prune_sql =
    "VALIDTIME SELECT PosID FROM POSITION WHERE T1 < DATE '1985-01-01' \
     ORDER BY PosID"
  in
  let mw1 = connect_n 1 in
  let r1 = Middleware.query mw1 prune_sql in
  let mwn = connect_n 3 in
  let backends = Tango_dbms.Topology.backends (Middleware.topology mwn) in
  List.iter Tango_dbms.Backend.reset_meters backends;
  let rn = Middleware.query mwn prune_sql in
  let idle =
    List.filter (fun b -> Tango_dbms.Backend.tuples_shipped b = 0) backends
  in
  let same =
    Relation.equal_multiset r1.Middleware.result rn.Middleware.result
  in
  let pruned = same && idle <> [] in
  Fmt.pr "# pruning smoke: %d of %d shards idle on T1 < 1985 (%s)@.@."
    (List.length idle) (List.length backends)
    (if pruned then "pruning reduces tuples shipped"
     else "NO PRUNING OBSERVED");
  bench_payload :=
    Some
      (Tango_obs.Json.Obj
         [
           ("by_shard_count", Tango_obs.Json.List by_shard_count);
           ( "pruning",
             Tango_obs.Json.Obj
               [
                 ("idle_shards", Tango_obs.Json.Int (List.length idle));
                 ("total_shards", Tango_obs.Json.Int (List.length backends));
                 ("results_match", Tango_obs.Json.Bool same);
                 ( "pruning_reduces_tuples_shipped",
                   Tango_obs.Json.Bool pruned );
               ] );
         ])

(* ------------------------------------------------------------------ *)
(* tail: tail-latency attribution on a skewed 2-shard topology          *)
(* ------------------------------------------------------------------ *)

(* One shard pays a simulated per-round-trip latency, the other none:
   the tail is manufactured, so the attribution machinery must name the
   slow shard.  Checks the watchdog's dominant-backend/phase verdict and
   conservation — the per-phase breakdown must sum to the pipeline wall
   time, and the per-backend breakdown must account for the bulk of the
   execute phase (the spin makes boundary time dominate). *)
let tail ctx =
  Fmt.pr "== Tail-latency attribution: skewed 2-shard topology ==@.";
  (* shard1's per-round-trip spin is 50x the client default; shard0 pays
     nothing — enough to outweigh shard0's larger transfer volume (the
     replicated EMPLOYEE is scanned on the primary) *)
  let spins = [ 0; 1_000_000 ] in
  let slow_backend = "shard1" in
  let topo =
    Uis.load_sharded ~scale:ctx.scale ~roundtrip_spins:spins ~shards:2 ()
  in
  (* profiling off: its per-operator instrumentation would count as
     middleware execution and dilute the boundary share being measured *)
  let config =
    Middleware.Config.(default |> with_tracing true |> with_plan_cache true)
  in
  let mw = Middleware.connect_topology ~config topo in
  Middleware.adopt_factors mw ctx.factors;
  (* warm the plan cache before the observer is installed: the recorded
     runs are then cache hits, whose wall time the skewed boundary —
     not the optimizer — dominates *)
  List.iter (fun (_, sql) -> ignore (Middleware.query mw sql)) Queries.workload;
  let open Tango_monitor in
  let log = Event_log.create ~capacity:512 () in
  let endpoints = Endpoints.create ~log mw in
  let reps = if ctx.quick then 2 else 4 in
  for _ = 1 to reps do
    List.iter (fun (_, sql) -> ignore (Middleware.query mw sql)) Queries.workload
  done;
  let runs =
    List.filter_map
      (fun (r : Event_log.record) ->
        let ev = r.Event_log.event in
        Option.map
          (fun run -> (ev.Middleware.elapsed_us, run))
          ev.Middleware.run)
      (Event_log.recent log)
  in
  (* conservation: phases vs wall time, backends vs execute *)
  let ratios f =
    List.filter_map
      (fun (elapsed_us, run) ->
        match f elapsed_us run (Middleware.breakdown run) with
        | num, den when den > 0.0 -> Some (num /. den)
        | _ -> None)
      runs
  in
  let boundary (b : Middleware.breakdown) =
    b.Middleware.transfer_us +. b.Middleware.gather_wait_us
  in
  let phase_ratios =
    ratios (fun elapsed_us r b ->
        ( r.Middleware.parse_us +. r.Middleware.optimize_us
          +. r.Middleware.translate_us +. b.Middleware.mw_exec_us
          +. boundary b,
          elapsed_us ))
  in
  let backend_ratios =
    ratios (fun _ r b -> (boundary b, r.Middleware.execute_us))
  in
  let mean = function
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  (* per-backend totals over the whole run *)
  header [ "backend"; "transfer[ms]"; "wait[ms]"; "rows"; "bytes" ];
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun (_, (run : int Middleware.run)) ->
      List.iter
        (fun ((name, _) as lane) ->
          Hashtbl.replace lanes name
            (lane :: Option.value ~default:[] (Hashtbl.find_opt lanes name)))
        run.Middleware.backends)
    runs;
  Hashtbl.iter
    (fun name bs ->
      let b = Tango_xxl.Attribution.totals bs in
      Fmt.pr "%-8s %12.1f %9.1f %6d %8d@." name
        (b.Middleware.us /. 1000.0)
        (b.Middleware.wait_us /. 1000.0)
        b.Middleware.rows b.Middleware.bytes)
    lanes;
  let verdict =
    Watchdog.evaluate (Endpoints.watchdog endpoints)
      ~now_us:(Tango_obs.now_us ()) ~slo:(Endpoints.slo endpoints) ~log
      ~feedback:(Middleware.profile_store mw)
      ~cache:(Middleware.plan_cache_stats mw)
      ()
  in
  let dominant_name, dominant_share =
    match verdict.Watchdog.dominant_backend with
    | Some (n, s) -> (n, s)
    | None -> ("(none)", 0.0)
  in
  let dominant_phase =
    match verdict.Watchdog.dominant_phase with Some (n, _) -> n | None -> "(none)"
  in
  let dominant_ok = String.equal dominant_name slow_backend in
  Fmt.pr
    "# watchdog: dominant backend %s (share %.2f, expected %s — %s), \
     dominant phase %s@."
    dominant_name dominant_share slow_backend
    (if dominant_ok then "OK" else "WRONG")
    dominant_phase;
  Fmt.pr "# conservation: phases/wall mean %.3f, backends/execute mean %.3f@.@."
    (mean phase_ratios) (mean backend_ratios);
  bench_payload :=
    Some
      (Tango_obs.Json.Obj
         [
           ("shards", Tango_obs.Json.Int 2);
           ( "spins",
             Tango_obs.Json.List
               (List.map (fun s -> Tango_obs.Json.Int s) spins) );
           ("queries", Tango_obs.Json.Int (List.length runs));
           ("dominant_backend", Tango_obs.Json.String dominant_name);
           ("dominant_share", Tango_obs.Json.Float dominant_share);
           ("dominant_phase", Tango_obs.Json.String dominant_phase);
           ("dominant_ok", Tango_obs.Json.Bool dominant_ok);
           ( "phase_conservation_mean",
             Tango_obs.Json.Float (mean phase_ratios) );
           ( "backend_over_execute_mean",
             Tango_obs.Json.Float (mean backend_ratios) );
         ])

(* ------------------------------------------------------------------ *)
(* telemetry: what does observing cost?                                 *)
(* ------------------------------------------------------------------ *)

(* The observability stack must not become the workload.  GC/allocation
   attribution is always on, so every variant carries it; what stays
   optional is tracing and the serve path's event-log/SLO observer.  Each variant — base, tracing, and full
   (tracing + observer) — gets its own warmed session, and the variants'
   timed rounds are interleaved, the order rotating every round, so host
   speed drift lands on all of them alike.  A variant's overhead is the
   median over rounds of its per-round slowdown against base's round; the
   payload carries [overhead_full] and the [overhead_ok] verdict the CI
   telemetry job gates on (< 10%). *)
let telemetry ctx =
  let rounds = if ctx.quick then 40 else 100 in
  Fmt.pr
    "== Telemetry self-overhead: workload qps vs optional instrumentation ==@.";
  Fmt.pr
    "(one untimed warm round per variant, then %d interleaved timed rounds@."
    rounds;
  Fmt.pr " of Queries 1-4; overhead: median per-round slowdown against base,@.";
  Fmt.pr
    " and the median paired extra time per query, with its quartiles)@.";
  header [ "variant"; "qps"; "total[ms]"; "overhead"; "extra[us/query] (q1..q3)" ];
  let position = position_prefix ctx 400 in
  let employee =
    let tuples = Relation.tuples ctx.full_employee in
    Relation.make
      (Relation.schema ctx.full_employee)
      (Array.sub tuples 0 (min 200 (Array.length tuples)))
  in
  let run_round mw =
    List.iter (fun (_, sql) -> ignore (Middleware.query mw sql)) Queries.workload
  in
  (* Each variant names the optional layers it turns on. *)
  let variants =
    Array.of_list
      (List.map
         (fun (name, tracing, observer) ->
           let _db, mw =
             session ctx [ ("POSITION", position); ("EMPLOYEE", employee) ]
           in
           (* spin 0 for the same reason as the throughput experiment: the
              simulated network latency is identical across variants and
              only dilutes the effect under measurement *)
           Middleware.set_config mw
             Middleware.Config.(
               Middleware.config mw |> with_roundtrip_spin 0
               |> with_tracing tracing);
           if observer then ignore (Tango_monitor.Endpoints.create mw);
           (* warm round: plan cache + statistics, so the timed rounds
              measure each variant's steady state *)
           run_round mw;
           (name, tracing, observer, mw))
         [
           ("base", false, false);
           ("tracing", true, false);
           ("full", true, true);
         ])
  in
  let n = Array.length variants in
  let round_us = Array.make_matrix n rounds 0.0 in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      let _, _, _, mw = variants.(i) in
      let t0 = Tango_obs.mono_us () in
      run_round mw;
      round_us.(i).(r) <- Tango_obs.mono_us () -. t0
    done
  done;
  (* the [q]-quantile, interpolating between the closest ranks *)
  let quantile q xs =
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  in
  let median = quantile 0.5 in
  let overhead i =
    Stdlib.max 0.0
      (median
         (Array.init rounds (fun r ->
              1.0 -. (round_us.(0).(r) /. round_us.(i).(r)))))
  in
  (* The ratio rises when the base gets faster with the tracing cost
     unchanged; the absolute extra time per query tells the two apart. *)
  let per_round = List.length Queries.workload in
  let extra_us q i =
    quantile q
      (Array.init rounds (fun r ->
           (round_us.(i).(r) -. round_us.(0).(r)) /. float_of_int per_round))
  in
  let queries = rounds * per_round in
  let variant_json i (name, tracing, observer, _) =
    let total_us = Array.fold_left ( +. ) 0.0 round_us.(i) in
    let qps = float_of_int queries /. (total_us /. 1e6) in
    Fmt.pr "%-16s %9.1f %10.1f %9.1f%% %9.1f (%.1f..%.1f)@." name qps
      (total_us /. 1000.0) (100.0 *. overhead i) (extra_us 0.5 i)
      (extra_us 0.25 i) (extra_us 0.75 i);
    Tango_obs.Json.Obj
      [
        ("variant", Tango_obs.Json.String name);
        ("tracing", Tango_obs.Json.Bool tracing);
        ("observer", Tango_obs.Json.Bool observer);
        ("queries", Tango_obs.Json.Int queries);
        ("qps", Tango_obs.Json.Float qps);
        ("overhead", Tango_obs.Json.Float (overhead i));
        ("extra_us_per_query", Tango_obs.Json.Float (extra_us 0.5 i));
        ("extra_us_per_query_q1", Tango_obs.Json.Float (extra_us 0.25 i));
        ("extra_us_per_query_q3", Tango_obs.Json.Float (extra_us 0.75 i));
      ]
  in
  let variant_docs = Array.to_list (Array.mapi variant_json variants) in
  let budget = 0.10 in
  let overhead_full = overhead (n - 1) in
  let overhead_ok = overhead_full < budget in
  let doc =
    Tango_obs.Json.Obj
      [
        ("experiment", Tango_obs.Json.String "telemetry");
        ("rounds", Tango_obs.Json.Int rounds);
        ("variants", Tango_obs.Json.List variant_docs);
        ("overhead_full", Tango_obs.Json.Float overhead_full);
        ("overhead_budget", Tango_obs.Json.Float budget);
        ("overhead_ok", Tango_obs.Json.Bool overhead_ok);
      ]
  in
  bench_payload := Some doc;
  Fmt.pr "%s@." (Tango_obs.Json.to_string doc);
  Fmt.pr "# tracing + observer overhead: %.1f%% of base qps (budget %.0f%%)%s@.@."
    (100.0 *. overhead_full) (100.0 *. budget)
    (if overhead_ok then "" else "  (OVER BUDGET)")

(* ------------------------------------------------------------------ *)
(* micro: Bechamel micro-benchmarks                                     *)
(* ------------------------------------------------------------------ *)

let micro ctx =
  Fmt.pr "== Bechamel micro-benchmarks of core algorithms ==@.";
  let open Bechamel in
  let open Toolkit in
  let n = 2000 in
  let rel = position_prefix ctx (min n (Relation.cardinality ctx.full_position)) in
  let sorted_rel = Relation.sort [ Order.asc "PosID"; Order.asc "T1" ] rel in
  let qual alias =
    Relation.make
      (Schema.qualify alias (Schema.unqualify (Relation.schema rel)))
      (Relation.tuples sorted_rel)
  in
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "POSITION" rel;
  let small = position_prefix ctx 250 in
  let db_small = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db_small "POSITION" small;
  let taggr_sql =
    Tango_sqlgen.Translate.translate
      (Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "CNT" ]
         (Op.scan "POSITION" Uis.position_schema))
  in
  let tests =
    Test.make_grouped ~name:"tango"
      [
        Test.make
          ~name:(Printf.sprintf "TAGGR^M (%d tuples)" (Relation.cardinality rel))
          (Staged.stage (fun () ->
               ignore
                 (Tango_xxl.Cursor.to_relation
                    (Tango_xxl.Taggr.taggr ~group_by:[ "PosID" ]
                       ~aggs:[ Op.count_star "CNT" ]
                       (Tango_xxl.Cursor.of_relation sorted_rel)))));
        Test.make
          ~name:
            (Printf.sprintf "TJOIN^M (%dx%d)" (Relation.cardinality rel)
               (Relation.cardinality rel))
          (Staged.stage (fun () ->
               ignore
                 (Tango_xxl.Cursor.to_relation
                    (Tango_xxl.Joins.temporal_merge_join
                       ~pred:(Tango_sql.Ast.Lit (Value.Bool true))
                       ~left_keys:[ "A.PosID" ] ~right_keys:[ "B.PosID" ]
                       (Tango_xxl.Cursor.of_relation (qual "A"))
                       (Tango_xxl.Cursor.of_relation (qual "B"))))));
        Test.make
          ~name:(Printf.sprintf "SORT^M (%d tuples)" (Relation.cardinality rel))
          (Staged.stage (fun () ->
               ignore
                 (Tango_xxl.Cursor.to_relation
                    (Tango_xxl.Sort.sort [ Order.asc "T1" ]
                       (Tango_xxl.Cursor.of_relation rel)))));
        Test.make
          ~name:
            (Printf.sprintf "tuple marshalling (%d tuples)"
               (Relation.cardinality rel))
          (Staged.stage (fun () ->
               Relation.iter (fun t -> ignore (Tuple.marshal_roundtrip t)) rel));
        Test.make
          ~name:(Printf.sprintf "DBMS scan (%d tuples)" (Relation.cardinality rel))
          (Staged.stage (fun () ->
               ignore
                 (Tango_dbms.Database.query db "SELECT COUNT(*) AS C FROM POSITION")));
        Test.make
          ~name:
            (Printf.sprintf "TAGGR^D SQL (%d tuples)" (Relation.cardinality small))
          (Staged.stage (fun () ->
               ignore (Tango_dbms.Database.query_ast db_small taggr_sql)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (t :: _) -> Fmt.pr "%-40s %12.1f us/run@." name (t /. 1000.0)
      | _ -> Fmt.pr "%-40s (no estimate)@." name)
    (List.sort compare rows);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig8", fig8); ("fig10", fig10); ("fig11a", fig11a); ("fig11b", fig11b);
    ("sel", sel); ("choice", choice); ("memo", memo); ("overhead", overhead);
    ("prefetch", prefetch); ("calib", calib);
    ("sharing", sharing); ("adapt", adapt); ("obs", obs);
    ("baseline", baseline); ("throughput", throughput);
    ("param-cache", param_cache);
    ("sharding", sharding); ("tail", tail); ("telemetry", telemetry);
    ("micro", micro) ]

let write_bench_json ~dir ~name ~scale ~quick ~wall_s payload =
  let doc =
    Tango_obs.Json.Obj
      [
        ("experiment", Tango_obs.Json.String name);
        ("scale", Tango_obs.Json.Float scale);
        ("quick", Tango_obs.Json.Bool quick);
        ("wall_s", Tango_obs.Json.Float wall_s);
        ( "payload",
          match payload with Some j -> j | None -> Tango_obs.Json.Null );
      ]
  in
  let file_name = String.map (fun c -> if c = '-' then '_' else c) name in
  let path = Filename.concat dir ("BENCH_" ^ file_name ^ ".json") in
  let oc = open_out path in
  output_string oc (Tango_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "# wrote %s@." path

let () =
  let scale = ref 0.02 in
  let quick = ref false in
  let selected = ref [] in
  let out = ref "" in
  let spec =
    [
      ( "--scale",
        Arg.Set_float scale,
        "S  size multiplier vs the paper's relations (default 0.02)" );
      ("--quick", Arg.Set quick, "  fewer sweep points");
      ( "--experiment",
        Arg.String
          (fun s ->
            selected := List.rev_append (String.split_on_char ',' s) !selected),
        "NAMES  comma-separated experiments (default: all)" );
      ( "--out",
        Arg.Set_string out,
        "DIR  write a BENCH_<experiment>.json baseline per experiment \
         (wall time + machine-readable payload) into DIR" );
    ]
  in
  Arg.parse spec
    (fun s -> selected := s :: !selected)
    "tango bench: regenerate the paper's tables and figures";
  let to_run =
    match !selected with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Fmt.epr "unknown experiment %s (known: %s)@." n
                  (String.concat ", " (List.map fst experiments));
                None)
          (List.rev names)
  in
  if to_run = [] then exit 1;
  let t0 = Tango_obs.mono_us () in
  let ctx = make_ctx ~scale:!scale ~quick:!quick in
  List.iter
    (fun (name, f) ->
      let e0 = Tango_obs.mono_us () in
      bench_payload := None;
      f ctx;
      if !out <> "" then
        write_bench_json ~dir:!out ~name ~scale:!scale ~quick:!quick
          ~wall_s:((Tango_obs.mono_us () -. e0) /. 1e6)
          !bench_payload)
    to_run;
  Fmt.pr "# total bench time: %.1f s@." ((Tango_obs.mono_us () -. t0) /. 1e6)
