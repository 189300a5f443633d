(* Tests for statistics: the collector, StartBefore/EndBefore selectivity
   (the paper's Section 3.3 worked example), and cardinality derivation
   (including the temporal aggregation bounds of Section 3.4). *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_stats
open Tango_workload

let col ?q c = Ast.Col (q, c)
let date s = Ast.Lit (Value.Date (Tango_temporal.Chronon.of_string s))

(* The Section 3.3 relation: 100k tuples (scaled to 20k for test speed),
   7-day periods uniform over 1995..2000. *)
let n_uniform = 20_000
let uniform_rel = Uniform.generate ~n:n_uniform ()

let stats_of ?(histograms = `All) rel name qualifier =
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db name rel;
  Collector.collect ~histograms db ~qualifier name

let uniform_stats = stats_of uniform_rel "R" "R"
let uniform_stats_nohist = stats_of ~histograms:`None uniform_rel "R" "R"

let overlap_pred =
  (* T1 < 1997-02-08 AND T2 > 1997-02-01 *)
  Ast.Binop
    ( Ast.And,
      Ast.Binop (Ast.Lt, col "T1", date "1997-02-08"),
      Ast.Binop (Ast.Gt, col "T2", date "1997-02-01") )

let actual_fraction =
  let a = Tango_temporal.Chronon.of_string "1997-02-01" in
  let b = Tango_temporal.Chronon.of_string "1997-02-08" in
  float_of_int (Uniform.actual_overlaps uniform_rel ~a ~b)
  /. float_of_int n_uniform

(* Paper: actual result is ~0.4-0.8% of the relation; the naive estimate is
   ~24.7% ("a factor of 40 too high"); the temporal estimate is ~0.8%. *)
let test_naive_overestimates () =
  let naive = Selectivity.selectivity ~mode:Selectivity.Naive uniform_stats_nohist overlap_pred in
  Alcotest.(check bool)
    (Printf.sprintf "naive=%.4f ~ 0.247" naive)
    true
    (naive > 0.20 && naive < 0.30);
  Alcotest.(check bool) "naive far above actual" true (naive > 10.0 *. actual_fraction)

let test_temporal_estimate_close () =
  List.iter
    (fun stats ->
      let est = Selectivity.selectivity ~mode:Selectivity.Temporal stats overlap_pred in
      Alcotest.(check bool)
        (Printf.sprintf "temporal=%.4f vs actual=%.4f" est actual_fraction)
        true
        (est < 3.0 *. actual_fraction +. 0.002 && est > actual_fraction /. 3.0 -. 0.002))
    [ uniform_stats; uniform_stats_nohist ]

let test_timeslice () =
  let a = float_of_int (Tango_temporal.Chronon.of_string "1997-06-15") in
  let est = Selectivity.timeslice_cardinality uniform_stats ~a in
  (* each day intersects ~ n*7/1819 tuples *)
  let expected = float_of_int n_uniform *. 7.0 /. 1819.0 in
  Alcotest.(check bool)
    (Printf.sprintf "timeslice %.1f ~ %.1f" est expected)
    true
    (est > expected /. 3.0 && est < expected *. 3.0)

let test_start_end_before_monotone () =
  let s = uniform_stats in
  let d x = float_of_int (Tango_temporal.Chronon.of_string x) in
  Alcotest.(check bool) "monotone" true
    (Selectivity.start_before s (d "1996-01-01")
    <= Selectivity.start_before s (d "1998-01-01"));
  Alcotest.(check bool) "bounded by card" true
    (Selectivity.start_before s (d "2001-01-01")
    <= float_of_int n_uniform +. 1.0);
  Alcotest.(check bool) "zero before min" true
    (Selectivity.start_before s (d "1990-01-01") < 1.0)

(* --- standard (non-temporal) selectivity --- *)

let test_equality_selectivity () =
  let sel =
    Selectivity.selectivity uniform_stats
      (Ast.Binop (Ast.Eq, col "ID", Ast.Lit (Value.Int 5)))
  in
  Alcotest.(check bool) "1/distinct" true
    (abs_float (sel -. (1.0 /. float_of_int n_uniform)) < 1e-6)

let test_range_selectivity () =
  let sel =
    Selectivity.selectivity uniform_stats
      (Ast.Binop (Ast.Lt, col "ID", Ast.Lit (Value.Int (n_uniform / 2))))
  in
  Alcotest.(check bool) (Printf.sprintf "~0.5, got %.3f" sel) true
    (sel > 0.45 && sel < 0.55)

let test_or_not () =
  let p = Ast.Binop (Ast.Lt, col "ID", Ast.Lit (Value.Int (n_uniform / 2))) in
  let sel_or = Selectivity.selectivity uniform_stats (Ast.Binop (Ast.Or, p, p)) in
  let sel_not = Selectivity.selectivity uniform_stats (Ast.Not p) in
  Alcotest.(check bool) "or bounded" true (sel_or >= 0.45 && sel_or <= 1.0);
  Alcotest.(check bool) "not complements" true (abs_float (sel_not +. 0.5) -. 1.0 < 0.1)

(* --- derivation --- *)

let pos_rel = Uis.position ~n:2000 ()

let env =
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "POSITION" pos_rel;
  Derive.env (fun ~qualifier table -> Collector.collect db ~qualifier table)

let scan = Op.scan "POSITION" Uis.position_schema

let test_derive_scan () =
  let s = Derive.derive env scan in
  Alcotest.(check bool) "card" true (abs_float (s.Rel_stats.card -. 2000.0) < 1.0);
  Alcotest.(check bool) "size close to real" true
    (let est = Rel_stats.size s in
     let real = float_of_int (Relation.byte_size pos_rel) in
     est > 0.8 *. real && est < 1.2 *. real)

let test_derive_select () =
  let op =
    Op.select (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 17.5))) scan
  in
  let s = Derive.derive env op in
  (* PayRate uniform on [5, 30): above 17.5 is ~half *)
  Alcotest.(check bool)
    (Printf.sprintf "halved: %.0f" s.Rel_stats.card)
    true
    (s.Rel_stats.card > 700.0 && s.Rel_stats.card < 1300.0)

let test_derive_join () =
  let op =
    Op.join
      (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
      (Op.scan ~alias:"A" "POSITION" Uis.position_schema)
      (Op.scan ~alias:"B" "POSITION" Uis.position_schema)
  in
  let s = Derive.derive env op in
  (* self-join on key with d distinct values: n^2/d *)
  let d =
    float_of_int
      (List.length
         (List.sort_uniq Value.compare
            (Array.to_list (Relation.column pos_rel "PosID"))))
  in
  let expected = 2000.0 *. 2000.0 /. d in
  Alcotest.(check bool)
    (Printf.sprintf "join card %.0f ~ %.0f" s.Rel_stats.card expected)
    true
    (s.Rel_stats.card > expected /. 3.0 && s.Rel_stats.card < expected *. 3.0)

let test_derive_taggr_bounds () =
  let s_in = Derive.derive env scan in
  let min_c, max_c, est = Derive.taggr_cardinality s_in [ "PosID" ] in
  Alcotest.(check bool) "min <= est <= max" true (min_c <= est && est <= max_c);
  Alcotest.(check bool) "max <= 2n-1" true (max_c <= (2.0 *. 2000.0) -. 1.0);
  (* actual result size falls within the bounds *)
  let actual =
    Relation.cardinality
      (Reference.eval
         (fun _ -> pos_rel)
         (Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "C" ] scan))
  in
  Alcotest.(check bool)
    (Printf.sprintf "actual %d within [%.0f, %.0f]" actual min_c max_c)
    true
    (float_of_int actual >= min_c && float_of_int actual <= max_c)

let test_derive_taggr_no_groups () =
  let s_in = Derive.derive env scan in
  let _, max_c, _ = Derive.taggr_cardinality s_in [] in
  let d1 = Rel_stats.distinct_of s_in "T1" and d2 = Rel_stats.distinct_of s_in "T2" in
  Alcotest.(check bool) "max = d1+d2+1" true (abs_float (max_c -. (d1 +. d2 +. 1.0)) < 1.0)

let test_derive_temporal_join_factor () =
  let l = Derive.derive env scan and r = Derive.derive env scan in
  let f = Derive.temporal_overlap_factor l r in
  Alcotest.(check bool) "factor in (0,1]" true (f > 0.0 && f <= 1.0)

let test_derive_project_transfers () =
  let op = Op.to_mw (Op.project [ (col "PosID", "P") ] scan) in
  let s = Derive.derive env op in
  Alcotest.(check bool) "card preserved" true (abs_float (s.Rel_stats.card -. 2000.0) < 1.0);
  Alcotest.(check bool) "narrower" true
    (Rel_stats.avg_tuple_size s < Rel_stats.avg_tuple_size (Derive.derive env scan))

(* property: temporal estimate is never worse than naive by more than 2x on
   uniform overlap queries, and is within 10x of actual *)
let prop_temporal_beats_naive =
  QCheck.Test.make ~name:"temporal estimate beats naive on overlap windows"
    ~count:40
    QCheck.(pair (int_range 0 1700) (int_range 1 60))
    (fun (off, len) ->
      let lo = Tango_temporal.Chronon.of_string "1995-01-01" in
      let a = lo + off and b = lo + off + len in
      let pred =
        Ast.Binop
          ( Ast.And,
            Ast.Binop (Ast.Lt, col "T1", Ast.Lit (Value.Date b)),
            Ast.Binop (Ast.Gt, col "T2", Ast.Lit (Value.Date a)) )
      in
      let actual =
        float_of_int (Uniform.actual_overlaps uniform_rel ~a ~b)
        /. float_of_int n_uniform
      in
      let t = Selectivity.selectivity ~mode:Selectivity.Temporal uniform_stats pred in
      let n = Selectivity.selectivity ~mode:Selectivity.Naive uniform_stats pred in
      abs_float (t -. actual) <= abs_float (n -. actual) +. 0.01)

(* ------------- the Statistics Collector reads the catalog ------------- *)

let uis_session () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  (db, Tango_core.Middleware.connect ~roundtrip_spin:0 db)

let test_collector_reuses_catalog () =
  let db, mw = uis_session () in
  let stats () = Option.get (Tango_dbms.Database.stats_of db "POSITION") in
  let before = stats () in
  List.iter
    (fun (_, sql) -> ignore (Tango_core.Middleware.query mw sql))
    Queries.workload;
  Alcotest.(check bool) "catalog record untouched" true (stats () == before)

let test_collector_sees_insert () =
  let db, mw = uis_session () in
  let card () = (Derive.derive (Tango_core.Middleware.stats_env mw) scan).Rel_stats.card in
  let n = card () in
  ignore
    (Tango_dbms.Database.execute db
       "INSERT INTO POSITION VALUES (9999, 1, 'X', 'D', 10.00, 'S', \
        DATE '1990-01-01', DATE '1991-01-01')");
  Tango_core.Middleware.refresh_statistics mw;
  Alcotest.(check (float 0.0)) "new cardinality" (n +. 1.0) (card ())

let test_collector_histogram_view () =
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "R" uniform_rel;
  let catalog = Tango_dbms.Database.analyze db ~histograms:`All "R" in
  let hists (s : Rel_stats.t) =
    List.filter (fun (_, c) -> c.Rel_stats.histogram <> None) s.Rel_stats.cols
  in
  let without = Collector.collect ~histograms:`None db ~qualifier:"R" "R" in
  Alcotest.(check int) "no histograms in the view" 0 (List.length (hists without));
  let in_catalog () = Option.get (Tango_dbms.Database.stats_of db "R") in
  Alcotest.(check bool) "catalog record untouched" true (in_catalog () == catalog);
  let only_t1 = Collector.collect ~histograms:(`Cols [ "T1" ]) db ~qualifier:"R" "R" in
  Alcotest.(check (list string)) "only the selected column" [ "R.T1" ]
    (List.map fst (hists only_t1));
  let all = Collector.collect ~histograms:`All db ~qualifier:"R" "R" in
  Alcotest.(check bool) "catalog histograms, no re-ANALYZE" true
    (in_catalog () == catalog
    && List.for_all2
         (fun (_, (c : Rel_stats.col)) (k : Tango_dbms.Stat.column_stats) ->
           c.histogram == k.histogram)
         all.Rel_stats.cols catalog.columns)

let () =
  Alcotest.run "tango_stats"
    [
      ( "selectivity",
        [
          Alcotest.test_case "naive overestimates (sec 3.3)" `Quick test_naive_overestimates;
          Alcotest.test_case "temporal estimate close" `Quick test_temporal_estimate_close;
          Alcotest.test_case "timeslice" `Quick test_timeslice;
          Alcotest.test_case "start/end before monotone" `Quick test_start_end_before_monotone;
          Alcotest.test_case "equality" `Quick test_equality_selectivity;
          Alcotest.test_case "range" `Quick test_range_selectivity;
          Alcotest.test_case "or/not" `Quick test_or_not;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "scan" `Quick test_derive_scan;
          Alcotest.test_case "select" `Quick test_derive_select;
          Alcotest.test_case "join" `Quick test_derive_join;
          Alcotest.test_case "taggr bounds" `Quick test_derive_taggr_bounds;
          Alcotest.test_case "taggr no groups" `Quick test_derive_taggr_no_groups;
          Alcotest.test_case "temporal join factor" `Quick test_derive_temporal_join_factor;
          Alcotest.test_case "project & transfers" `Quick test_derive_project_transfers;
        ] );
      ( "collector",
        [
          Alcotest.test_case "catalog reused across Queries 1-4" `Quick
            test_collector_reuses_catalog;
          Alcotest.test_case "INSERT then refresh" `Quick test_collector_sees_insert;
          Alcotest.test_case "histogram view" `Quick test_collector_histogram_view;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_temporal_beats_naive ] );
    ]
