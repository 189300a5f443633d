(* End-to-end integration tests for the TANGO middleware: full pipeline
   (temporal SQL -> optimize -> split -> SQL + middleware algorithms ->
   result), consistency of all hand-built experiment plans, and
   calibration. *)

open Tango_rel
open Tango_algebra
open Tango_core
open Tango_workload

(* A small UIS instance: POSITION ~400 tuples, EMPLOYEE ~250. *)
let setup () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let mw = Middleware.connect ~roundtrip_spin:0 db in
  (db, mw)

let lookup_rel db name = Tango_dbms.Database.query db ("SELECT * FROM " ^ name)

(* Reference evaluation of a plan tree (transfers are identities there). *)
let reference db op =
  Reference.eval
    (fun name ->
      let r = lookup_rel db name in
      Relation.make (Schema.unqualify (Relation.schema r)) (Relation.tuples r))
    op

let test_query1_end_to_end () =
  let db, mw = setup () in
  let report = Middleware.query mw Queries.q1_sql in
  let expected =
    reference db
      (Tango_tsql.Compile.compile
         ~lookup:(Middleware.schema_lookup mw)
         Queries.q1_sql)
  in
  Alcotest.(check bool) "nonempty" true (Relation.cardinality report.Middleware.result > 0);
  Alcotest.(check bool) "matches reference semantics" true
    (Relation.equal_multiset expected report.Middleware.result);
  (* sorted by PosID as requested *)
  let col = Relation.column report.Middleware.result "PosID" in
  let sorted = ref true in
  Array.iteri
    (fun i v -> if i > 0 && Value.compare col.(i - 1) v > 0 then sorted := false)
    col;
  Alcotest.(check bool) "ordered by PosID" true !sorted;
  Alcotest.(check bool) "memo explored" true (report.Middleware.elements > 0)

let test_query1_plans_agree () =
  let db, mw = setup () in
  let results =
    List.map
      (fun (name, tree) ->
        (name, (Middleware.run_fixed mw ~required_order:Queries.q1_order tree).Middleware.result))
      (Queries.q1_plans ~position:"POSITION" ())
  in
  let expected = reference db (Queries.q1_plan3 ~position:"POSITION" ()) in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " agrees") true (Relation.equal_multiset expected r))
    results

let test_query2_plans_agree () =
  let db, mw = setup () in
  let period_end = "1997-01-01" in
  let plans = Queries.q2_plans ~position:"POSITION" ~period_end () in
  let expected = reference db (snd (List.hd plans)) in
  Alcotest.(check bool) "query 2 selects something" true (Relation.cardinality expected > 0);
  List.iter
    (fun (name, tree) ->
      let r = (Middleware.run_fixed mw ~required_order:Queries.q2_order tree).Middleware.result in
      Alcotest.(check bool)
        (Printf.sprintf "%s agrees (%d tuples)" name (Relation.cardinality r))
        true
        (Relation.equal_multiset expected r))
    plans

let test_query2_plan_semantics () =
  (* Plan 1 (reduced aggregation argument) and Plan 5 (unreduced) agree:
     the semantic reduction of the taggr argument is sound for this query. *)
  let db, _mw = setup () in
  let p1 = reference db (Queries.q2_plan1 ~position:"POSITION" ~period_end:"1997-01-01" ()) in
  let p5 = reference db (Queries.q2_plan5 ~position:"POSITION" ~period_end:"1997-01-01" ()) in
  Alcotest.(check bool) "reduction sound" true (Relation.equal_multiset p1 p5)

let test_query3_plans_agree () =
  let db, mw = setup () in
  let plans = Queries.q3_plans ~position:"POSITION" ~start_bound:"1996-01-01" () in
  let expected = reference db (snd (List.hd plans)) in
  List.iter
    (fun (name, tree) ->
      let r = (Middleware.run_fixed mw ~required_order:Queries.q3_order tree).Middleware.result in
      Alcotest.(check bool) (name ^ " agrees") true (Relation.equal_multiset expected r))
    plans

let test_query4_plans_agree () =
  let db, mw = setup () in
  let expected = reference db (Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" ()) in
  let r1 =
    (Middleware.run_fixed mw ~required_order:Queries.q4_order
       (Queries.q4_plan1 ~position:"POSITION" ~employee:"EMPLOYEE" ()))
      .Middleware.result
  in
  Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Force_nested_loop;
  let r2 =
    (Middleware.run_fixed mw ~required_order:Queries.q4_order
       (Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" ()))
      .Middleware.result
  in
  Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Force_sort_merge;
  let r3 =
    (Middleware.run_fixed mw ~required_order:Queries.q4_order
       (Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" ()))
      .Middleware.result
  in
  Tango_dbms.Database.set_join_method db Tango_dbms.Executor.Auto;
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "plan %d agrees" (i + 1))
        true
        (Relation.equal_multiset expected r))
    [ r1; r2; r3 ]

let test_optimizer_runs_q2_sql () =
  let _db, mw = setup () in
  let report = Middleware.query mw (Queries.q2_sql ~period_end:"1997-01-01") in
  Alcotest.(check bool) "produced rows" true
    (Relation.cardinality report.Middleware.result > 0);
  Alcotest.(check bool) "classes counted" true (report.Middleware.classes > 10)

let test_optimizer_result_correct_q3 () =
  let db, mw = setup () in
  let sql = Queries.q3_sql ~start_bound:"1996-01-01" in
  let report = Middleware.query mw sql in
  let expected =
    reference db (Tango_tsql.Compile.compile ~lookup:(Middleware.schema_lookup mw) sql)
  in
  Alcotest.(check bool) "matches reference" true
    (Relation.equal_multiset expected report.Middleware.result)

let test_temp_tables_dropped () =
  let db, mw = setup () in
  ignore
    (Middleware.run_fixed mw ~required_order:Queries.q1_order
       (Queries.q2_plan1 ~position:"POSITION" ~period_end:"1997-01-01" ()));
  let leftovers =
    List.filter
      (fun t -> String.length t >= 9 && String.sub t 0 9 = "TANGO_TMP")
      (Tango_dbms.Catalog.table_names (Tango_dbms.Database.catalog db))
  in
  Alcotest.(check (list string)) "no temp tables remain" [] leftovers

let test_calibration_produces_sane_factors () =
  let db, mw = setup () in
  Middleware.calibrate ~sizes:{ Tango_cost.Calibrate.small = 200; large = 800 } mw;
  let f = Middleware.factors mw in
  Alcotest.(check bool) "all positive" true
    (f.Tango_cost.Factors.p_tm > 0.0 && f.Tango_cost.Factors.p_td > 0.0
    && f.Tango_cost.Factors.p_sortm > 0.0 && f.Tango_cost.Factors.p_taggd1 > 0.0);
  (* DBMS temporal aggregation must cost more than the middleware's -
     that asymmetry is the paper's core finding.  Counted, not timed:
     Query 1's all-DBMS plan reads more POSITION tuples from storage than
     the TAGGR^M of its middleware plan takes as input.  (The timed
     p_taggd1 > p_taggm1 is checked on the calibration medians of
     [bench --experiment calib].) *)
  let io = Tango_dbms.Database.io_stats db in
  let before = Tango_storage.Io_stats.copy io in
  ignore
    (Middleware.run_fixed mw ~required_order:Queries.q1_order
       (Queries.q1_plan3 ~position:"POSITION" ()));
  let taggd_reads = (Tango_storage.Io_stats.diff io before).tuples_read in
  let plan2 =
    Middleware.run_fixed mw ~required_order:Queries.q1_order
      (Queries.q1_plan2 ~position:"POSITION" ())
  in
  let rec taggm_inputs (n : Exec_plan.node) =
    match n.Exec_plan.kind with
    | Exec_plan.Taggr { arg; _ } -> arg.Exec_plan.out_tuples
    | Exec_plan.Sort (_, c) | Exec_plan.Sort_noop c | Exec_plan.Filter (_, c)
    | Exec_plan.Project (_, c) ->
        taggm_inputs c
    | _ -> Alcotest.fail "no TAGGR^M in Query 1's plan 2"
  in
  let inputs = taggm_inputs plan2.Middleware.exec in
  Alcotest.(check int) "TAGGR^M takes every POSITION tuple once"
    (Tango_dbms.Database.table_cardinality db "POSITION")
    inputs;
  Alcotest.(check bool) "taggr asymmetry" true (taggd_reads > inputs)

let test_config_round_trip () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let config =
    Middleware.Config.(
      { default with row_prefetch = 25 }
      |> with_roundtrip_spin 0
      |> with_selectivity_mode Tango_stats.Selectivity.Naive
      |> with_histograms false
      |> with_plan_cache true
      |> with_transfer_sharing false
      |> with_tracing true)
  in
  let mw = Middleware.connect ~config db in
  (* the config rides through connect unchanged... *)
  Alcotest.(check bool) "config round-trips" true (Middleware.config mw = config);
  (* ...and the backend picked up the connection fields: 25 rows per
     round trip *)
  let backend = Middleware.primary mw in
  let rows = Tango_dbms.Database.table_cardinality db "POSITION" in
  Tango_dbms.Backend.reset_meters backend;
  let cur =
    Tango_dbms.Backend.execute_query backend
      (Tango_sql.Parser.query "SELECT PosID FROM POSITION")
  in
  while Tango_dbms.Backend.fetch_batch cur <> None do () done;
  Alcotest.(check int) "row prefetch applied" ((rows + 24) / 25)
    (Tango_dbms.Backend.roundtrips backend);
  (* explicit connect args override config fields *)
  let mw2 = Middleware.connect ~config ~row_prefetch:7 db in
  Alcotest.(check int) "explicit arg wins" 7
    (Middleware.config mw2).Middleware.Config.row_prefetch;
  (* deprecated setters are shims over the immutable config *)
  Middleware.set_config mw
    Middleware.Config.(with_plan_cache false (Middleware.config mw));
  Alcotest.(check bool) "setter updates config" false
    (Middleware.config mw).Middleware.Config.plan_cache;
  Alcotest.(check bool) "other fields untouched" false
    (Middleware.config mw).Middleware.Config.share_transfers;
  (* a traced query works under this config and reports a trace *)
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "trace collected" true (r.Middleware.trace <> None)

let test_histogram_toggle () =
  let _db, mw = setup () in
  Middleware.set_config mw
    Middleware.Config.(with_histograms false (Middleware.config mw));
  let r1 = Middleware.query mw Queries.q1_sql in
  Middleware.set_config mw
    Middleware.Config.(with_histograms true (Middleware.config mw));
  let r2 = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "same result either way" true
    (Relation.equal_multiset r1.Middleware.result r2.Middleware.result)

let test_distinct_through_middleware () =
  let db, mw = setup () in
  let sql = "SELECT DISTINCT Dept FROM POSITION ORDER BY Dept" in
  let report = Middleware.query mw sql in
  let expected =
    reference db (Tango_tsql.Compile.compile ~lookup:(Middleware.schema_lookup mw) sql)
  in
  Alcotest.(check bool) "distinct matches reference" true
    (Relation.equal_multiset expected report.Middleware.result);
  Alcotest.(check int) "10 departments" 10
    (Relation.cardinality report.Middleware.result)

let test_coalesce_through_middleware () =
  let db, mw = setup () in
  (* employment spells per employee coalesce into maximal periods *)
  let sql =
    "VALIDTIME COALESCE SELECT EmpID FROM POSITION ORDER BY EmpID"
  in
  let report = Middleware.query mw sql in
  let expected =
    reference db (Tango_tsql.Compile.compile ~lookup:(Middleware.schema_lookup mw) sql)
  in
  Alcotest.(check bool) "nonempty" true
    (Relation.cardinality report.Middleware.result > 0);
  Alcotest.(check bool) "coalesce matches reference" true
    (Relation.equal_multiset expected report.Middleware.result);
  (* coalesced periods per employee never overlap or meet *)
  let r = report.Middleware.result in
  let srt = Relation.sort [ Order.asc "EmpID"; Order.asc "T1" ] r in
  let sch = Relation.schema srt in
  let ts = Relation.tuples srt in
  for i = 1 to Array.length ts - 1 do
    let same =
      Value.equal (Tuple.field sch ts.(i) "EmpID") (Tuple.field sch ts.(i - 1) "EmpID")
    in
    if same then begin
      let prev_t2 = Value.to_int (Tuple.field sch ts.(i - 1) "T2") in
      let cur_t1 = Value.to_int (Tuple.field sch ts.(i) "T1") in
      if cur_t1 <= prev_t2 then Alcotest.fail "periods not maximal"
    end
  done

(* End-to-end property: for random small relations and random windows, the
   full middleware pipeline returns exactly what the reference semantics
   prescribe. *)
let prop_middleware_matches_reference =
  QCheck.Test.make ~name:"middleware pipeline = reference semantics" ~count:12
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 5 60)
           (QCheck.make
              QCheck.Gen.(
                map
                  (fun (k, v, t1, d) -> (k, v, t1, t1 + 1 + d))
                  (quad (int_range 1 6) (int_range 0 50) (int_range 0 60)
                     (int_range 0 25)))))
        (int_range 0 60))
    (fun (rows, cut) ->
      let schema =
        Schema.make
          [ ("K", Value.TInt); ("V", Value.TInt);
            ("T1", Value.TDate); ("T2", Value.TDate) ]
      in
      let rel =
        Relation.of_list schema
          (List.map
             (fun (k, v, a, b) ->
               Tuple.of_list [ Value.Int k; Value.Int v; Value.Date a; Value.Date b ])
             rows)
      in
      let db = Tango_dbms.Database.create () in
      Tango_dbms.Database.load_relation db "R" rel;
      Tango_dbms.Database.analyze_all db ();
      let mw = Middleware.connect ~roundtrip_spin:0 db in
      let sql =
        Printf.sprintf
          "VALIDTIME SELECT K, COUNT(*) AS CNT, SUM(V) AS S FROM R WHERE T1            < %d GROUP BY K ORDER BY K"
          (cut + 30)
      in
      let report = Middleware.query mw sql in
      let expected =
        Reference.eval
          (fun _ -> rel)
          (Tango_tsql.Compile.compile ~lookup:(fun _ -> schema) sql)
      in
      Relation.equal_multiset expected report.Middleware.result)

let test_difference_end_to_end () =
  (* positions held in 1996 minus positions held in 1999, via the algebra
     (difference is a middleware-only algorithm the optimizer must place) *)
  let db, mw = setup () in
  let proj alias bound1 bound2 =
    Op.project
      [ (Tango_sql.Ast.Col (Some alias, "PosID"), "PosID") ]
      (Op.select
         (Tango_sql.Ast.Binop
            (Tango_sql.Ast.And,
             Tango_sql.Ast.Binop
               (Tango_sql.Ast.Lt, Tango_sql.Ast.Col (Some alias, "T1"),
                Tango_sql.Ast.Lit (Value.Date (Tango_temporal.Chronon.of_string bound2))),
             Tango_sql.Ast.Binop
               (Tango_sql.Ast.Gt, Tango_sql.Ast.Col (Some alias, "T2"),
                Tango_sql.Ast.Lit (Value.Date (Tango_temporal.Chronon.of_string bound1)))))
         (Op.scan ~alias "POSITION" Uis.position_schema))
  in
  let diff =
    Op.Difference
      { left = Op.Dup_elim (proj "A" "1996-01-01" "1997-01-01");
        right = Op.Dup_elim (proj "B" "1999-01-01" "2000-01-01") }
  in
  let report = Middleware.run_plan mw (Op.to_mw diff) in
  let expected = reference db diff in
  Alcotest.(check bool) "difference matches reference" true
    (Relation.equal_multiset expected report.Middleware.result)

let test_three_way_temporal_join () =
  (* three temporal sources chained through temporal joins, end to end *)
  let db, mw = setup () in
  let sql =
    "VALIDTIME SELECT A.PosID AS PosID, A.EmpName AS E1, B.EmpName AS E2,      C.EmpName AS E3 FROM POSITION A, POSITION B, POSITION C WHERE A.PosID      = B.PosID AND B.PosID = C.PosID AND A.EmpID < B.EmpID AND B.EmpID <      C.EmpID AND A.T1 < DATE '1997-01-01' ORDER BY PosID"
  in
  let report = Middleware.query mw sql in
  let expected =
    reference db (Tango_tsql.Compile.compile ~lookup:(Middleware.schema_lookup mw) sql)
  in
  Alcotest.(check bool) "nonempty" true
    (Relation.cardinality report.Middleware.result > 0);
  Alcotest.(check bool) "3-way join matches reference" true
    (Relation.equal_multiset expected report.Middleware.result)

let test_alpha_normalize () =
  let q1 =
    Tango_sql.Parser.query
      "SELECT A.PosID AS A__PosID, A.T1 AS A__T1 FROM POSITION A WHERE        A.PayRate > 10 ORDER BY A__PosID"
  in
  let q2 =
    Tango_sql.Parser.query
      "SELECT B.PosID AS B__PosID, B.T1 AS B__T1 FROM POSITION B WHERE        B.PayRate > 10 ORDER BY B__PosID"
  in
  let q3 =
    Tango_sql.Parser.query
      "SELECT B.PosID AS B__PosID, B.T1 AS B__T1 FROM POSITION B WHERE        B.PayRate > 11 ORDER BY B__PosID"
  in
  Alcotest.(check bool) "alpha-equivalent statements normalize equal" true
    (Exec_plan.alpha_normalize q1 = Exec_plan.alpha_normalize q2);
  Alcotest.(check bool) "different literals stay different" false
    (Exec_plan.alpha_normalize q1 = Exec_plan.alpha_normalize q3)

let test_transfer_sharing () =
  (* Query 3's two sides are alpha-equivalent sorted selections of
     POSITION: with sharing, the second TRANSFER^M costs no round trips. *)
  let _db, mw = setup () in
  let tree = Queries.q3_plan2 ~position:"POSITION" ~start_bound:"1997-01-01" () in
  Middleware.set_config mw
    Middleware.Config.(with_transfer_sharing false (Middleware.config mw));
  Tango_dbms.Backend.reset_meters (Middleware.primary mw);
  let unshared = Middleware.run_fixed mw ~required_order:Queries.q3_order tree in
  let rt_unshared = Tango_dbms.Backend.roundtrips (Middleware.primary mw) in
  Middleware.set_config mw
    Middleware.Config.(with_transfer_sharing true (Middleware.config mw));
  Tango_dbms.Backend.reset_meters (Middleware.primary mw);
  let shared = Middleware.run_fixed mw ~required_order:Queries.q3_order tree in
  let rt_shared = Tango_dbms.Backend.roundtrips (Middleware.primary mw) in
  Alcotest.(check bool) "same result" true
    (Relation.equal_multiset unshared.Middleware.result shared.Middleware.result);
  Alcotest.(check bool)
    (Printf.sprintf "fewer round trips (%d vs %d)" rt_shared rt_unshared)
    true
    (rt_shared < rt_unshared)

(* Random algebra trees through the FULL optimizer + executor, checked
   against reference semantics.  Trees combine scans of two tables,
   selections, sorts, temporal joins, temporal aggregation, duplicate
   elimination and coalescing. *)
let random_tree_property =
  let tbl_schema =
    Schema.make
      [ ("K", Value.TInt); ("V", Value.TInt);
        ("T1", Value.TDate); ("T2", Value.TDate) ]
  in
  let mk_rel seed n =
    let st = ref seed in
    let rand bound =
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      (!st lsr 13) mod bound
    in
    Relation.of_list tbl_schema
      (List.init n (fun _ ->
           let t1 = rand 60 in
           Tuple.of_list
             [ Value.Int (1 + rand 5); Value.Int (rand 40);
               Value.Date t1; Value.Date (t1 + 1 + rand 20) ]))
  in
  let open QCheck.Gen in
  let pred_gen schema =
    (* a comparison on some numeric attribute of the schema *)
    let numeric =
      List.filter
        (fun (a : Schema.attribute) ->
          match a.Schema.dtype with
          | Value.TInt | Value.TDate -> true
          | _ -> false)
        (Schema.attributes schema)
    in
    let* a = oneofl numeric in
    let* v = int_bound 60 in
    let lit =
      match a.Schema.dtype with
      | Value.TDate -> Tango_sql.Ast.Lit (Value.Date v)
      | _ -> Tango_sql.Ast.Lit (Value.Int (v mod 8))
    in
    let col = Tango_sql.Ast.Col (None, a.Schema.name) in
    oneofl
      [ Tango_sql.Ast.Binop (Tango_sql.Ast.Lt, col, lit);
        Tango_sql.Ast.Binop (Tango_sql.Ast.Ge, col, lit);
        Tango_sql.Ast.Binop (Tango_sql.Ast.Eq, col, lit) ]
  in
  let rec tree_gen depth =
    let leaf =
      oneofl
        [ Op.scan "L" tbl_schema; Op.scan "R" tbl_schema ]
    in
    if depth <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            let* arg = tree_gen (depth - 1) in
            let* p = pred_gen (Op.schema arg) in
            return (Op.select p arg) );
          ( 1,
            let* arg = tree_gen (depth - 1) in
            let s = Op.schema arg in
            let keys = [ Order.asc (Schema.name_at s 0) ] in
            return (Op.sort keys arg) );
          ( 2,
            let* arg = tree_gen (depth - 1) in
            let s = Op.schema arg in
            match Op.period_attrs s with
            | Some _ ->
                let k =
                  List.find_opt
                    (fun (a : Schema.attribute) ->
                      String.equal (Schema.base_name a.Schema.name) "K")
                    (Schema.attributes s)
                in
                let group =
                  match k with Some a -> [ a.Schema.name ] | None -> []
                in
                return (Op.temporal_aggregate group [ Op.count_star "CNT" ] arg)
            | None -> return arg );
          ( 1,
            let* arg = tree_gen (depth - 1) in
            return (Op.Dup_elim arg) );
          ( 1,
            let* arg = tree_gen (depth - 1) in
            match Op.period_attrs (Op.schema arg) with
            | Some _ -> return (Op.Coalesce arg)
            | None -> return arg );
          ( 2,
            (* temporal join of the two base tables (unique names) *)
            let* pl = pred_gen tbl_schema in
            let l = Op.select pl (Op.scan "L" tbl_schema) in
            let r = Op.scan "R" tbl_schema in
            let pred =
              Tango_sql.Ast.Binop
                (Tango_sql.Ast.Eq,
                 Tango_sql.Ast.Col (Some "L", "K"),
                 Tango_sql.Ast.Col (Some "R", "K"))
            in
            return (Op.temporal_join pred l r) );
        ]
  in
  QCheck.Test.make ~name:"random plans: optimizer+executor = reference"
    ~count:25
    (QCheck.make
       QCheck.Gen.(pair (tree_gen 3) (pair (int_range 5 40) (int_range 5 40))))
    (fun (tree, (nl, nr)) ->
      let rel_l = mk_rel 7 nl and rel_r = mk_rel 11 nr in
      let db = Tango_dbms.Database.create () in
      Tango_dbms.Database.load_relation db "L" rel_l;
      Tango_dbms.Database.load_relation db "R" rel_r;
      Tango_dbms.Database.analyze_all db ();
      let mw = Middleware.connect ~roundtrip_spin:0 db in
      let expected =
        Reference.eval
          (fun name -> if name = "L" then rel_l else rel_r)
          tree
      in
      let report = Middleware.run_plan mw (Op.to_mw tree) in
      Relation.equal_multiset expected report.Middleware.result)

let test_exec_plan_instrumentation () =
  let _db, mw = setup () in
  let report = Middleware.query mw Queries.q1_sql in
  let total = ref 0.0 in
  Exec_plan.iter
    (fun n -> total := !total +. n.Exec_plan.elapsed_us)
    report.Middleware.exec;
  Alcotest.(check bool) "time recorded" true (!total > 0.0);
  Alcotest.(check bool) "tuples recorded" true
    (report.Middleware.exec.Exec_plan.out_tuples
    = Relation.cardinality report.Middleware.result)

(* ---- entry points: what each public entry reports ---- *)

(* A traced plan-cache session with an observer collecting events. *)
let observed_session ~auto =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let config =
    Middleware.Config.(
      default |> with_roundtrip_spin 0 |> with_tracing true
      |> with_plan_cache true |> with_auto_parameterize auto)
  in
  let mw = Middleware.connect ~config db in
  let events = ref [] in
  Middleware.set_query_observer mw (Some (fun ev -> events := ev :: !events));
  (mw, events)

(* The single event [f] emitted. *)
let only_event events f =
  events := [];
  let x = f () in
  match !events with
  | [ ev ] -> (x, ev)
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

(* Pin one entry's event, cache report, optimize phase and trace shape.
   [parsed]/[optimized] say whether those phases ran; [counts] is the
   expected memo (classes, elements), when known. *)
let check_entry name ~kind ~cls ~parsed ~optimized ?counts
    ((r : Middleware.report), (ev : Middleware.query_event)) =
  let say s = name ^ ": " ^ s in
  Alcotest.(check string) (say "event kind") kind ev.Middleware.kind;
  Alcotest.(check bool) (say "event carries the run") true
    (match ev.Middleware.run with
    | Some r' ->
        r'.Middleware.exec == r.Middleware.exec
        && r'.Middleware.result = Relation.cardinality r.Middleware.result
    | None -> false);
  Alcotest.(check bool) (say "no error") true (ev.Middleware.error = None);
  Alcotest.(check (option string)) (say "cache class") cls
    (Option.map
       (fun (c : Middleware.cache_report) -> c.Middleware.cache_class)
       r.Middleware.cache);
  Alcotest.(check bool) (say "optimize_us zero iff skipped") (not optimized)
    (r.Middleware.optimize_us = 0.0);
  Option.iter
    (fun (c, e) ->
      Alcotest.(check int) (say "classes") c r.Middleware.classes;
      Alcotest.(check int) (say "elements") e r.Middleware.elements)
    counts;
  let root =
    match r.Middleware.trace with
    | Some s -> s
    | None -> Alcotest.fail (say "no trace")
  in
  Alcotest.(check string) (say "root span") ("middleware." ^ kind)
    root.Tango_obs.Trace.name;
  Alcotest.(check bool) (say "parse span") parsed
    (Tango_obs.Trace.find "parse" root <> None);
  Alcotest.(check bool) (say "optimize span") optimized
    (Tango_obs.Trace.find "optimize" root <> None);
  Alcotest.(check bool) (say "execute span") true
    (Tango_obs.Trace.find "execute" root <> None)

let test_entry_points () =
  (* exact-keyed texts: Query 1 has no literal to parameterize *)
  let mw, events = observed_session ~auto:false in
  let miss, ev = only_event events (fun () -> Middleware.query mw Queries.q1_sql) in
  check_entry "exact miss" ~kind:"query" ~cls:(Some "miss") ~parsed:true
    ~optimized:true (miss, ev);
  Alcotest.(check (option string)) "event sql" (Some Queries.q1_sql)
    ev.Middleware.sql;
  Alcotest.(check bool) "miss explored the memo" true (miss.Middleware.classes > 0);
  let counts = (miss.Middleware.classes, miss.Middleware.elements) in
  check_entry "exact hit" ~kind:"query" ~cls:(Some "exact-hit") ~parsed:false
    ~optimized:false ~counts
    (only_event events (fun () -> Middleware.query mw Queries.q1_sql));
  (* run_plan optimizes but never parses or touches the cache *)
  let initial, required_order =
    Tango_tsql.Compile.initial_plan_and_order
      ~lookup:(Middleware.schema_lookup mw) Queries.q1_sql
  in
  check_entry "run_plan" ~kind:"run_plan" ~cls:None ~parsed:false
    ~optimized:true ~counts
    (only_event events (fun () ->
         Middleware.run_plan mw ~required_order initial));
  (* run_fixed neither parses nor optimizes; its memo counts are 0 *)
  check_entry "run_fixed" ~kind:"run_fixed" ~cls:None ~parsed:false
    ~optimized:false ~counts:(0, 0)
    (only_event events (fun () ->
         Middleware.run_fixed mw ~required_order:Queries.q1_order
           (Queries.q1_plan1 ~position:"POSITION" ())));
  (* templates: literal-varying Query 2 texts share one entry *)
  let mw, events = observed_session ~auto:true in
  let tmiss, ev =
    only_event events (fun () ->
        Middleware.query mw (Queries.q2_sql ~period_end:"1996-01-01"))
  in
  check_entry "template miss" ~kind:"query" ~cls:(Some "miss") ~parsed:true
    ~optimized:true (tmiss, ev);
  check_entry "template hit" ~kind:"query" ~cls:(Some "template-hit")
    ~parsed:false ~optimized:false
    ~counts:(tmiss.Middleware.classes, tmiss.Middleware.elements)
    (only_event events (fun () ->
         Middleware.query mw (Queries.q2_sql ~period_end:"1997-01-01")));
  (* explicit bind variables take the template path too *)
  let sql = "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > $1" in
  let pmiss, ev =
    only_event events (fun () -> Middleware.query_params mw sql [ Value.Int 10 ])
  in
  check_entry "query_params miss" ~kind:"query" ~cls:(Some "miss")
    ~parsed:true ~optimized:true (pmiss, ev);
  Alcotest.(check (option string)) "params event sql" (Some sql)
    ev.Middleware.sql;
  check_entry "query_params hit" ~kind:"query" ~cls:(Some "template-hit")
    ~parsed:false ~optimized:false
    ~counts:(pmiss.Middleware.classes, pmiss.Middleware.elements)
    (only_event events (fun () ->
         Middleware.query_params mw sql [ Value.Int 25 ]))

(* A failing entry emits one event with the error and no report, then
   re-raises. *)
let test_entry_point_failures () =
  let mw, events = observed_session ~auto:true in
  let check_failure name kind ~expected f =
    events := [];
    (match f () with
    | (_ : Middleware.report) -> Alcotest.failf "%s: expected a failure" name
    | exception e ->
        Alcotest.(check bool) (name ^ ": re-raised " ^ Printexc.to_string e)
          true (expected e));
    match !events with
    | [ ev ] ->
        Alcotest.(check string) (name ^ ": kind") kind ev.Middleware.kind;
        Alcotest.(check bool) (name ^ ": error") true (ev.Middleware.error <> None);
        Alcotest.(check bool) (name ^ ": no run") true
          (ev.Middleware.run = None)
    | evs -> Alcotest.failf "%s: expected one event, got %d" name (List.length evs)
  in
  check_failure "unparsable query" "query" ~expected:(fun _ -> true) (fun () ->
      Middleware.query mw "VALIDTIME SELEKT nothing FROM");
  (* a bare scan leaves its result in the DBMS: no T^M, no plan *)
  let scan = Op.scan "POSITION" (Middleware.schema_lookup mw "POSITION") in
  check_failure "non-executable fixed tree" "run_fixed"
    ~expected:(function Middleware.No_plan _ -> true | _ -> false)
    (fun () -> Middleware.run_fixed mw scan)

let () =
  Alcotest.run "tango_core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "query 1 end to end" `Quick test_query1_end_to_end;
          Alcotest.test_case "query 2 via optimizer" `Quick test_optimizer_runs_q2_sql;
          Alcotest.test_case "query 3 via optimizer" `Quick test_optimizer_result_correct_q3;
          Alcotest.test_case "3-way temporal join" `Quick test_three_way_temporal_join;
          Alcotest.test_case "difference end to end" `Quick test_difference_end_to_end;
        ] );
      ( "plan consistency",
        [
          Alcotest.test_case "query 1 plans agree" `Quick test_query1_plans_agree;
          Alcotest.test_case "query 2 plans agree" `Quick test_query2_plans_agree;
          Alcotest.test_case "query 2 reduction sound" `Quick test_query2_plan_semantics;
          Alcotest.test_case "query 3 plans agree" `Quick test_query3_plans_agree;
          Alcotest.test_case "query 4 plans agree" `Quick test_query4_plans_agree;
        ] );
      ( "housekeeping",
        [
          Alcotest.test_case "temp tables dropped" `Quick test_temp_tables_dropped;
          Alcotest.test_case "calibration sane" `Quick test_calibration_produces_sane_factors;
          Alcotest.test_case "config round trip" `Quick test_config_round_trip;
          Alcotest.test_case "histogram toggle" `Quick test_histogram_toggle;
          Alcotest.test_case "instrumentation" `Quick test_exec_plan_instrumentation;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "DISTINCT end to end" `Quick test_distinct_through_middleware;
          Alcotest.test_case "COALESCE end to end" `Quick test_coalesce_through_middleware;
          Alcotest.test_case "alpha normalization" `Quick test_alpha_normalize;
          Alcotest.test_case "transfer sharing" `Quick test_transfer_sharing;
        ] );
      ( "entry points",
        [
          Alcotest.test_case "events, cache classes and spans" `Quick
            test_entry_points;
          Alcotest.test_case "failures emit one event" `Quick
            test_entry_point_failures;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_middleware_matches_reference;
          QCheck_alcotest.to_alcotest random_tree_property;
        ] );
    ]
