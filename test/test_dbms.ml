(* Tests for the simulated DBMS: DDL/DML, the SQL executor (selection,
   projection, joins, grouping, subqueries, unions), ANALYZE statistics,
   and the backend transfer boundary. *)

open Tango_rel
open Tango_dbms

let pos_schema =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("T1", Value.TDate); ("T2", Value.TDate) ]

(* The paper's Figure 3(a) POSITION relation. *)
let position_rows =
  [ (1, "Tom", 2, 20); (1, "Jane", 5, 25); (2, "Tom", 5, 10) ]

let make_db () =
  let db = Database.create () in
  Database.load_relation db "POSITION"
    (Relation.of_list pos_schema
       (List.map
          (fun (p, n, a, b) ->
            Tuple.of_list [ Value.Int p; Value.Str n; Value.Date a; Value.Date b ])
          position_rows));
  db

let ints r name = Array.to_list (Array.map Value.to_int (Relation.column r name))

let test_ddl_dml () =
  let db = Database.create () in
  (match Database.execute db "CREATE TABLE T (A INT, B VARCHAR)" with
  | Database.Ok_count 0 -> ()
  | _ -> Alcotest.fail "create failed");
  (match Database.execute db "INSERT INTO T VALUES (1, 'x'), (2, 'y')" with
  | Database.Ok_count 2 -> ()
  | _ -> Alcotest.fail "insert failed");
  let r = Database.query db "SELECT A FROM T" in
  Alcotest.(check (list int)) "rows" [ 1; 2 ] (ints r "A");
  ignore (Database.execute db "DROP TABLE T");
  Alcotest.(check bool) "dropped" false (Database.table_exists db "T");
  Alcotest.check_raises "duplicate table" (Catalog.Table_exists "Z") (fun () ->
      ignore (Database.execute db "CREATE TABLE Z (A INT)");
      ignore (Database.execute db "CREATE TABLE Z (A INT)"))

let test_select_where () =
  let db = make_db () in
  let r = Database.query db "SELECT EmpName FROM POSITION WHERE PosID = 1" in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r);
  let r = Database.query db "SELECT * FROM POSITION WHERE T1 >= DATE '1970-01-06'" in
  Alcotest.(check int) "two start at chronon 5" 2 (Relation.cardinality r);
  let r = Database.query db "SELECT * FROM POSITION WHERE T1 >= DATE '1970-02-01'" in
  Alcotest.(check int) "none start that late" 0 (Relation.cardinality r)

let test_projection_expressions () =
  let db = make_db () in
  let r =
    Database.query db "SELECT PosID * 10 AS X, T2 - T1 AS Dur FROM POSITION"
  in
  Alcotest.(check (list int)) "computed" [ 10; 10; 20 ] (ints r "X");
  Alcotest.(check (list int)) "duration" [ 18; 20; 5 ] (ints r "Dur")

let test_order_by () =
  let db = make_db () in
  let r = Database.query db "SELECT PosID, T1 FROM POSITION ORDER BY PosID DESC, T1" in
  Alcotest.(check (list int)) "desc order" [ 2; 1; 1 ] (ints r "PosID")

let test_distinct () =
  let db = make_db () in
  let r = Database.query db "SELECT DISTINCT PosID FROM POSITION" in
  Alcotest.(check int) "two distinct" 2 (Relation.cardinality r)

let test_group_by () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT PosID, COUNT(*) AS C, MIN(T1) AS MinT FROM POSITION GROUP BY \
       PosID ORDER BY PosID"
  in
  Alcotest.(check (list int)) "counts" [ 2; 1 ] (ints r "C");
  Alcotest.(check (list int)) "mins" [ 2; 5 ] (ints r "MinT")

let test_group_having () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT PosID FROM POSITION GROUP BY PosID HAVING COUNT(*) > 1"
  in
  Alcotest.(check (list int)) "only pos 1" [ 1 ] (ints r "PosID")

let test_global_aggregate () =
  let db = make_db () in
  let r = Database.query db "SELECT COUNT(*) AS N, MAX(T2) AS M FROM POSITION" in
  Alcotest.(check (list int)) "count" [ 3 ] (ints r "N");
  Alcotest.(check (list int)) "max" [ 25 ] (ints r "M");
  (* Aggregates over empty input yield one row; COUNT = 0. *)
  let r = Database.query db "SELECT COUNT(*) AS N FROM POSITION WHERE PosID = 99" in
  Alcotest.(check (list int)) "empty count" [ 0 ] (ints r "N")

let test_join_product () =
  let db = make_db () in
  let r = Database.query db "SELECT A.PosID FROM POSITION A, POSITION B" in
  Alcotest.(check int) "product" 9 (Relation.cardinality r)

let test_equi_join () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B WHERE \
       A.PosID = B.PosID AND A.T1 < B.T1"
  in
  (* Pairs within same position where A starts strictly earlier: only
     (Tom pos1 t1=2, Jane pos1 t1=5). *)
  Alcotest.(check int) "one pair" 1 (Relation.cardinality r)

let test_join_methods_agree () =
  let db = make_db () in
  let sql =
    "SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B WHERE \
     A.PosID = B.PosID ORDER BY A.PosID"
  in
  Database.set_join_method db Executor.Force_nested_loop;
  let nl = Database.query db sql in
  Database.set_join_method db Executor.Force_sort_merge;
  let sm = Database.query db sql in
  Database.set_join_method db Executor.Auto;
  Alcotest.(check bool) "same multiset" true (Relation.equal_multiset nl sm);
  Alcotest.(check int) "5 matches" 5 (Relation.cardinality nl)

let test_temporal_join_sql () =
  (* The Figure 5 temporal-join SQL shape: intersection via GREATEST/LEAST
     plus an overlap predicate. *)
  let db = make_db () in
  let r =
    Database.query db
      "SELECT A.PosID AS PosID, A.EmpName AS E1, B.EmpName AS E2, \
       GREATEST(A.T1, B.T1) AS T1, LEAST(A.T2, B.T2) AS T2 FROM POSITION A, \
       POSITION B WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 \
       AND A.EmpName < B.EmpName ORDER BY PosID"
  in
  Alcotest.(check int) "one overlapping pair" 1 (Relation.cardinality r);
  let t = (Relation.tuples r).(0) in
  Alcotest.(check int) "t1 = 5" 5 (Value.to_int (Tuple.field (Relation.schema r) t "T1"));
  Alcotest.(check int) "t2 = 20" 20 (Value.to_int (Tuple.field (Relation.schema r) t "T2"))

let test_scalar_subquery_correlated () =
  let db = make_db () in
  (* For each tuple, the next larger start time within the same position. *)
  let r =
    Database.query db
      "SELECT EmpName, (SELECT MIN(B.T1) FROM POSITION B WHERE B.PosID = \
       A.PosID AND B.T1 > A.T1) AS NextT1 FROM POSITION A ORDER BY EmpName"
  in
  let vals = Array.to_list (Relation.column r "NextT1") in
  (* Jane: none after 5 in pos 1 -> NULL; Tom(pos1,T1=2) -> 5; Tom(pos2) -> NULL *)
  Alcotest.(check bool) "jane null" true (Value.is_null (List.nth vals 0));
  Alcotest.(check int) "tom next" 5 (Value.to_int (List.nth vals 1));
  Alcotest.(check bool) "tom pos2 null" true (Value.is_null (List.nth vals 2))

let test_exists_in () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT EmpName FROM POSITION A WHERE EXISTS (SELECT * FROM POSITION \
       B WHERE B.PosID = A.PosID AND B.EmpName <> A.EmpName)"
  in
  Alcotest.(check int) "shared positions" 2 (Relation.cardinality r);
  let r =
    Database.query db
      "SELECT DISTINCT PosID FROM POSITION WHERE PosID IN (SELECT PosID \
       FROM POSITION WHERE EmpName = 'Jane')"
  in
  Alcotest.(check (list int)) "in subquery" [ 1 ] (ints r "PosID")

let test_union () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT PosID, T1 AS T FROM POSITION UNION SELECT PosID, T2 AS T FROM \
       POSITION"
  in
  (* Endpoint pairs: (1,2) (1,5) (1,20) (1,25) (2,5) (2,10) = 6 distinct. *)
  Alcotest.(check int) "distinct endpoints" 6 (Relation.cardinality r);
  let r_all =
    Database.query db
      "SELECT PosID, T1 AS T FROM POSITION UNION ALL SELECT PosID, T2 AS T \
       FROM POSITION"
  in
  Alcotest.(check int) "union all keeps dups" 6 (Relation.cardinality r_all)

let test_derived_table () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT g.PosID, g.C FROM (SELECT PosID, COUNT(*) AS C FROM POSITION \
       GROUP BY PosID) g WHERE g.C > 1"
  in
  Alcotest.(check (list int)) "derived" [ 1 ] (ints r "PosID")

(* The temporal-aggregation-in-SQL shape (paper Section 3.4): constant
   intervals via endpoint UNION + correlated MIN, then overlap join and
   GROUP BY.  Expected result is Figure 3(c). *)
let taggr_sql =
  "SELECT g.PosID AS PosID, g.TS AS T1, g.TE AS T2, COUNT(*) AS CNT \
   FROM (SELECT p1.PosID AS PosID, p1.T AS TS, \
           (SELECT MIN(p2.T) FROM (SELECT PosID, T1 AS T FROM POSITION \
            UNION SELECT PosID, T2 AS T FROM POSITION) p2 \
            WHERE p2.PosID = p1.PosID AND p2.T > p1.T) AS TE \
         FROM (SELECT PosID, T1 AS T FROM POSITION \
               UNION SELECT PosID, T2 AS T FROM POSITION) p1) g, \
        POSITION r \
   WHERE g.TE IS NOT NULL AND r.PosID = g.PosID AND r.T1 <= g.TS \
     AND r.T2 >= g.TE \
   GROUP BY g.PosID, g.TS, g.TE ORDER BY PosID, T1"

let test_temporal_aggregation_sql () =
  let db = make_db () in
  let r = Database.query db taggr_sql in
  let expect = [ (1, 2, 5, 1); (1, 5, 20, 2); (1, 20, 25, 1); (2, 5, 10, 1) ] in
  Alcotest.(check int) "four intervals" (List.length expect) (Relation.cardinality r);
  List.iteri
    (fun i (p, a, b, c) ->
      let t = (Relation.tuples r).(i) in
      let get n = Value.to_int (Tuple.field (Relation.schema r) t n) in
      Alcotest.(check (list int))
        (Printf.sprintf "row %d" i)
        [ p; a; b; c ]
        [ get "PosID"; get "T1"; get "T2"; get "CNT" ])
    expect

let test_index_scan_agrees_with_full_scan () =
  let db = Database.create () in
  let schema = Schema.make [ ("K", Value.TInt); ("V", Value.TStr) ] in
  let rows =
    List.init 500 (fun i ->
        Tuple.of_list [ Value.Int (i mod 50); Value.Str ("v" ^ string_of_int i) ])
  in
  Database.load_relation db "T" (Relation.of_list schema rows);
  let sql = "SELECT V FROM T WHERE K = 7" in
  let without_index = Database.query db sql in
  Database.create_index db "T" "K";
  let with_index = Database.query db sql in
  Alcotest.(check bool) "same result" true
    (Relation.equal_multiset without_index with_index);
  (* And a range predicate. *)
  let sql = "SELECT V FROM T WHERE K < 5" in
  let with_index_range = Database.query db sql in
  Alcotest.(check int) "range via index" 50 (Relation.cardinality with_index_range)

let test_null_semantics () =
  let db = Database.create () in
  ignore (Database.execute db "CREATE TABLE N (A INT, B INT)");
  ignore (Database.execute db "INSERT INTO N VALUES (1, 10), (2, NULL), (NULL, 30)");
  (* comparisons with NULL are false *)
  let r = Database.query db "SELECT A FROM N WHERE B > 5" in
  Alcotest.(check (list int)) "null comparison false" [ 1; 3 ]
    (Array.to_list
       (Array.map
          (fun t -> try Value.to_int t.(0) with _ -> 3)
          (Relation.tuples r)));
  (* IS NULL / IS NOT NULL *)
  let r = Database.query db "SELECT B FROM N WHERE A IS NULL" in
  Alcotest.(check int) "is null" 1 (Relation.cardinality r);
  let r = Database.query db "SELECT A FROM N WHERE B IS NOT NULL" in
  Alcotest.(check int) "is not null" 2 (Relation.cardinality r);
  (* aggregates skip NULL arguments; COUNT(col) counts non-null *)
  let r =
    Database.query db "SELECT COUNT(*) AS N, COUNT(B) AS NB, SUM(B) AS S FROM N"
  in
  let t = (Relation.tuples r).(0) in
  Alcotest.(check int) "count star" 3 (Value.to_int t.(0));
  Alcotest.(check int) "count col" 2 (Value.to_int t.(1));
  Alcotest.(check int) "sum skips null" 40 (Value.to_int t.(2));
  (* NULL join keys never match *)
  let r =
    Database.query db "SELECT X.A FROM N X, N Y WHERE X.A = Y.B"
  in
  Alcotest.(check int) "no null matches" 0 (Relation.cardinality r)

let test_arithmetic_in_where () =
  let db = make_db () in
  let r =
    Database.query db
      "SELECT EmpName FROM POSITION WHERE T2 - T1 > 15 ORDER BY EmpName"
  in
  (* durations: Tom 18, Jane 20, Tom 5 *)
  Alcotest.(check int) "two long assignments" 2 (Relation.cardinality r);
  let r = Database.query db "SELECT PosID FROM POSITION WHERE PosID * 2 = 4" in
  Alcotest.(check int) "computed equality" 1 (Relation.cardinality r)

let test_between_and_nested_derived () =
  let db = make_db () in
  let r = Database.query db "SELECT PosID FROM POSITION WHERE T1 BETWEEN 3 AND 6" in
  Alcotest.(check int) "between" 2 (Relation.cardinality r);
  (* two levels of derived tables *)
  let r =
    Database.query db
      "SELECT z.C FROM (SELECT y.PosID AS P, COUNT(*) AS C FROM (SELECT        PosID FROM POSITION WHERE PosID = 1) y GROUP BY y.PosID) z"
  in
  Alcotest.(check int) "nested derived" 1 (Relation.cardinality r);
  Alcotest.(check int) "count through layers" 2
    (Value.to_int (Relation.tuples r).(0).(0))

let test_index_nested_loop_join () =
  (* With an index on the inner join attribute, the executor probes instead
     of scanning; results must match the other join methods. *)
  let db = Database.create () in
  let dim_schema = Schema.make [ ("K", Value.TInt); ("Label", Value.TStr) ] in
  let fact_schema = Schema.make [ ("FK", Value.TInt); ("V", Value.TInt) ] in
  Database.load_relation db "DIM"
    (Relation.of_list dim_schema
       (List.init 50 (fun i ->
            Tuple.of_list [ Value.Int i; Value.Str ("L" ^ string_of_int i) ])));
  Database.load_relation db "FACT"
    (Relation.of_list fact_schema
       (List.init 300 (fun i ->
            Tuple.of_list [ Value.Int (i mod 60); Value.Int i ])));
  let sql = "SELECT F.V, D.Label FROM FACT F, DIM D WHERE F.FK = D.K" in
  Database.set_join_method db Executor.Force_sort_merge;
  let merge = Database.query db sql in
  Database.create_index db "DIM" "K";
  Database.set_join_method db Executor.Auto;
  let before = (Database.io_stats db).Tango_storage.Io_stats.index_lookups in
  let inl = Database.query db sql in
  let after = (Database.io_stats db).Tango_storage.Io_stats.index_lookups in
  Alcotest.(check bool) "probed the index" true (after - before >= 300);
  Alcotest.(check bool) "same result" true (Relation.equal_multiset merge inl);
  (* keys 50..59 have no DIM match and must be dropped *)
  Alcotest.(check int) "only matched keys" 250 (Relation.cardinality inl);
  (* forced NL also uses the probe *)
  Database.set_join_method db Executor.Force_nested_loop;
  let nl = Database.query db sql in
  Alcotest.(check bool) "forced NL agrees" true (Relation.equal_multiset merge nl)

let test_inl_with_residual_filter () =
  (* residual single-table predicates are re-applied after the probe *)
  let db = Database.create () in
  let dim_schema = Schema.make [ ("K", Value.TInt); ("Flag", Value.TInt) ] in
  Database.load_relation db "DIM"
    (Relation.of_list dim_schema
       (List.init 40 (fun i -> Tuple.of_list [ Value.Int i; Value.Int (i mod 2) ])));
  Database.load_relation db "FACT"
    (Relation.of_list (Schema.make [ ("FK", Value.TInt) ])
       (List.init 40 (fun i -> Tuple.of_list [ Value.Int i ])));
  Database.create_index db "DIM" "K";
  let r =
    Database.query db
      "SELECT F.FK FROM FACT F, DIM D WHERE F.FK = D.K AND D.Flag = 1"
  in
  Alcotest.(check int) "half survive" 20 (Relation.cardinality r)

let test_analyze_stats () =
  let db = make_db () in
  let st = Database.analyze db "POSITION" in
  Alcotest.(check int) "cardinality" 3 st.Stat.cardinality;
  Alcotest.(check bool) "blocks > 0" true (st.Stat.blocks > 0);
  Alcotest.(check bool) "avg size > 0" true (st.Stat.avg_tuple_size > 0.0);
  let c = Option.get (Stat.column_stats st "PosID") in
  Alcotest.(check int) "distinct" 2 c.Stat.distinct;
  Alcotest.(check bool) "min" true (Value.equal (Option.get c.Stat.min_value) (Value.Int 1));
  Alcotest.(check bool) "max" true (Value.equal (Option.get c.Stat.max_value) (Value.Int 2));
  Alcotest.(check bool) "histogram built" true (c.Stat.histogram <> None);
  (* Histograms can be disabled — the Query 2 experiment depends on this. *)
  let st = Database.analyze db ~histograms:`None "POSITION" in
  let c = Option.get (Stat.column_stats st "T1") in
  Alcotest.(check bool) "no histogram" true (c.Stat.histogram = None)

(* One-column table [T.C] of type [dtype] holding [vals] in this order. *)
let column_db dtype vals =
  let db = Database.create () in
  Database.load_relation db "T"
    (Relation.of_list (Schema.make [ ("C", dtype) ])
       (List.map (fun v -> Tuple.of_list [ v ]) vals));
  db

let analyzed_column db = Option.get (Stat.column_stats (Database.analyze db "T") "C")

let test_analyze_column_stats () =
  let db = Database.create () in
  Database.load_relation db "POSITION"
    (Relation.of_list pos_schema
       (List.map
          (fun (p, n, a, b) ->
            Tuple.of_list [ Value.Int p; Value.Str n; Value.Date a; Value.Date b ])
          [ (2, "Tom", 5, 10); (1, "Tom", 2, 20); (1, "Jane", 5, 25) ]));
  let st = Database.analyze db "POSITION" in
  let col name = Option.get (Stat.column_stats st name) in
  Alcotest.(check int) "distinct PosID" 2 (col "PosID").Stat.distinct;
  Alcotest.(check int) "distinct EmpName" 2 (col "EmpName").Stat.distinct;
  Alcotest.(check bool) "min T1" true ((col "T1").Stat.min_value = Some (Value.Date 2));
  Alcotest.(check bool) "max T2" true ((col "T2").Stat.max_value = Some (Value.Date 25));
  Alcotest.(check bool) "min EmpName" true
    ((col "EmpName").Stat.min_value = Some (Value.Str "Jane"));
  (* equal values of two representations: min and max are the first met *)
  let c = analyzed_column (column_db Value.TFloat
      [ Value.Float 5.0; Value.Int 3; Value.Int 5; Value.Float 3.0; Value.Null ]) in
  Alcotest.(check bool) "min first of its run" true (c.Stat.min_value = Some (Value.Int 3));
  Alcotest.(check bool) "max first of its run" true
    (c.Stat.max_value = Some (Value.Float 5.0));
  Alcotest.(check int) "distinct across representations" 3 c.Stat.distinct;
  Alcotest.(check int) "nulls" 1 c.Stat.nulls;
  (* an all-NULL numeric column has an empty histogram, no bounds *)
  let c = analyzed_column (column_db Value.TInt [ Value.Null; Value.Null ]) in
  Alcotest.(check bool) "all-NULL bounds" true
    (c.Stat.min_value = None && c.Stat.max_value = None);
  Alcotest.(check int) "all-NULL distinct" 1 c.Stat.distinct;
  Alcotest.(check (option int)) "all-NULL histogram empty" (Some 0)
    (Option.map Histogram.total c.Stat.histogram)

let test_index_ddl_keeps_stats_current () =
  let db = make_db () in
  let before = Database.analyze db "POSITION" in
  Database.create_index db ~clustered:true "POSITION" "PosID";
  let after = Option.get (Database.stats_of db "POSITION") in
  let c = Option.get (Stat.column_stats after "PosID") in
  Alcotest.(check bool) "indexed, clustered" true (c.Stat.indexed && c.Stat.clustered);
  Alcotest.(check bool) "other flags as before" true
    (Stat.column_stats after "T1" = Stat.column_stats before "T1");
  Alcotest.(check bool) "as a fresh ANALYZE" true
    (after = Database.analyze db "POSITION")

(* Today's formulas, one pass over the column per statistic: the
   reference [Analyze.run]'s single sorted pass must agree with. *)
let reference_column_stats (vals : Value.t array) ~numeric =
  let fold keep =
    Array.fold_left
      (fun acc v ->
        if Value.is_null v then acc
        else
          match acc with
          | None -> Some v
          | Some m -> Some (if keep (Value.compare v m) then v else m))
      None vals
  in
  let distinct =
    let vs = Array.copy vals in
    Array.sort Value.compare vs;
    let d = ref (min 1 (Array.length vs)) in
    for i = 1 to Array.length vs - 1 do
      if Value.compare vs.(i) vs.(i - 1) <> 0 then incr d
    done;
    !d
  in
  let nulls = Array.fold_left (fun n v -> if Value.is_null v then n + 1 else n) 0 vals in
  let histogram =
    if numeric && Array.length vals > 0 then begin
      let xs =
        Array.of_list
          (List.filter_map
             (fun v -> if Value.is_null v then None else Some (Value.to_float v))
             (Array.to_list vals))
      in
      Array.sort Float.compare xs;
      Some (Histogram.of_sorted ~buckets:32 xs)
    end
    else None
  in
  (fold (fun c -> c < 0), fold (fun c -> c > 0), distinct, nulls, histogram)

(* Adversarial one-column tables: empty, all-NULL, NULLs mixed in, one
   distinct value, strings, bools, dates, equal [Int]/[Float] values in a
   FLOAT column, and BOOLs in an INT column. *)
let column_gen =
  let open QCheck.Gen in
  let of_kind = function
    | 0 -> (Value.TInt, map (fun i -> Value.Int i) (int_range (-3) 3))
    | 1 ->
        ( Value.TFloat,
          map2
            (fun i as_int -> if as_int then Value.Int i else Value.Float (float_of_int i))
            (int_range 0 4) bool )
    | 2 -> (Value.TFloat, map (fun f -> Value.Float f) (float_range (-1e3) 1e3))
    | 3 -> (Value.TDate, map (fun d -> Value.Date d) (int_range 0 50))
    | 4 -> (Value.TStr, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "B"; "ab"; "" ]))
    | 5 -> (Value.TBool, map (fun b -> Value.Bool b) bool)
    | 6 ->
        (* an INSERT does not check types: BOOLs ranked below INTs *)
        (Value.TInt, oneof [ map (fun i -> Value.Int i) (int_range 0 2); map (fun b -> Value.Bool b) bool ])
    | _ -> (Value.TInt, return (Value.Int 7))
  in
  int_range 0 7 >>= fun kind ->
  let dtype, value = of_kind kind in
  oneofl [ 0.0; 0.3; 1.0 ] >>= fun null_p ->
  list_size (oneof [ return 0; int_range 1 80 ])
    (map2 (fun p v -> if p < null_p then Value.Null else v) (float_bound_exclusive 1.0) value)
  >|= fun vals -> (dtype, vals)

let prop_analyze_matches_reference =
  QCheck.Test.make ~name:"ANALYZE column stats = per-statistic reference" ~count:400
    (QCheck.make
       ~print:(fun (_, vals) -> String.concat "," (List.map Value.to_string vals))
       column_gen)
    (fun (dtype, vals) ->
      let c = analyzed_column (column_db dtype vals) in
      let numeric =
        match dtype with
        | Value.TInt | Value.TFloat | Value.TDate -> true
        | Value.TBool | Value.TStr -> false
      in
      (c.Stat.min_value, c.Stat.max_value, c.Stat.distinct, c.Stat.nulls, c.Stat.histogram)
      = reference_column_stats (Array.of_list vals) ~numeric)

let query_backend b sql = Backend.execute_query b (Tango_sql.Parser.query sql)

let drain cur =
  let rec go acc =
    match Backend.fetch_batch cur with
    | Some b -> go (List.rev_append (Array.to_list b) acc)
    | None -> List.rev acc
  in
  go []

let test_client_transfer () =
  let backend = Backend.in_process ~row_prefetch:2 ~roundtrip_spin:0 (make_db ()) in
  let rows =
    drain (query_backend backend "SELECT PosID, EmpName FROM POSITION ORDER BY PosID")
  in
  Alcotest.(check int) "all rows" 3 (List.length rows);
  Alcotest.(check int) "tuples shipped" 3 (Backend.tuples_shipped backend);
  (* 3 rows at prefetch 2 -> 2 round trips *)
  Alcotest.(check int) "round trips" 2 (Backend.roundtrips backend)

let test_client_bulk_load () =
  let db = make_db () in
  let backend = Backend.in_process ~roundtrip_spin:0 db in
  let schema = Schema.make [ ("A", Value.TInt) ] in
  let tuples = List.to_seq (List.init 25 (fun i -> Tuple.of_list [ Value.Int i ])) in
  let name = Backend.bulk_load backend ~table:"LOADED" schema tuples in
  Alcotest.(check string) "table name" "LOADED" name;
  Alcotest.(check int) "loaded rows" 25 (Database.table_cardinality db "LOADED");
  (* 25 rows at the default prefetch of 10 -> 3 round trips *)
  Alcotest.(check int) "round trips" 3 (Backend.roundtrips backend);
  let r = Database.query db "SELECT A FROM LOADED WHERE A < 3" in
  Alcotest.(check int) "queryable" 3 (Relation.cardinality r);
  Backend.drop_table backend "LOADED";
  Alcotest.(check bool) "dropped" false (Backend.table_exists backend "LOADED")

(* Boundary accounting, pinned exactly: one round trip per prefetch batch,
   every row once, and the serialized size of every row. *)
let test_client_accounting () =
  let db = make_db () in
  let rows =
    List.init 53 (fun i ->
        Tuple.of_list [ Value.Int i; Value.Str "x"; Value.Date i; Value.Date (i + 1) ])
  in
  Database.load_relation db "BIG" (Relation.of_list pos_schema rows);
  let backend =
    Backend.in_process ~name:"accounting" ~row_prefetch:7 ~roundtrip_spin:0 db
  in
  let got =
    drain (query_backend backend "SELECT PosID, EmpName, T1, T2 FROM BIG ORDER BY PosID")
  in
  Alcotest.(check bool) "rows in order" true
    (List.length got = 53 && List.for_all2 Tuple.equal rows got);
  let wire_bytes =
    List.fold_left
      (fun acc t ->
        let buf = Buffer.create 64 in
        Tuple.serialize buf t;
        acc + Buffer.length buf)
      0 rows
  in
  Alcotest.(check int) "roundtrips" 8 (Backend.roundtrips backend);
  Alcotest.(check int) "tuples" 53 (Backend.tuples_shipped backend);
  Alcotest.(check int) "bytes" wire_bytes (Backend.bytes_shipped backend);
  Backend.reset_meters backend;
  Alcotest.(check int) "reset" 0
    (Backend.roundtrips backend + Backend.tuples_shipped backend
    + Backend.bytes_shipped backend)

(* A prefetch below 1 is clamped at connect exactly as by
   [set_row_prefetch]: one row per round trip. *)
let test_prefetch_clamped () =
  List.iter
    (fun prefetch ->
      let backend =
        Backend.in_process ~row_prefetch:prefetch ~roundtrip_spin:0 (make_db ())
      in
      let rows = drain (query_backend backend "SELECT PosID FROM POSITION") in
      Alcotest.(check int) "rows" 3 (List.length rows);
      Alcotest.(check int) "one round trip per row" 3 (Backend.roundtrips backend);
      Backend.reset_meters backend;
      Backend.set_row_prefetch backend prefetch;
      ignore (drain (query_backend backend "SELECT PosID FROM POSITION"));
      Alcotest.(check int) "setter clamps alike" 3 (Backend.roundtrips backend))
    [ 0; -4 ]

(* Every change moves only its own table's version, and one catalog-wide
   clock hands versions out: ANALYZE, an INSERT statement and index DDL
   each move their table once; another table's churn moves nothing else;
   a dropped and re-created table gets a version it never had. *)
let test_table_versions () =
  let db = make_db () in
  Database.create_table db "OTHER" (Schema.make [ ("A", Value.TInt) ]);
  let v name = Option.get (Database.table_version db name) in
  let both () = (v "POSITION", v "OTHER") in
  (* [change] moves [table]'s version once, to the catalog clock's next
     value, and leaves the other table's alone *)
  let moves label table change =
    let other = if table = "POSITION" then "OTHER" else "POSITION" in
    let clock = max (v "POSITION") (v "OTHER") and untouched = v other in
    change ();
    Alcotest.(check int) (label ^ " moves " ^ table ^ " once") (clock + 1) (v table);
    Alcotest.(check int) (label ^ " leaves " ^ other) untouched (v other)
  in
  moves "ANALYZE" "POSITION" (fun () -> ignore (Database.analyze db "POSITION"));
  moves "CREATE INDEX" "POSITION" (fun () -> Database.create_index db "POSITION" "PosID");
  moves "INSERT" "POSITION" (fun () ->
      ignore
        (Database.execute db
           "INSERT INTO POSITION VALUES (9, 'x', DATE '1990-01-01', DATE \
            '1991-01-01'), (10, 'y', DATE '1990-01-01', DATE '1991-01-01')"));
  moves "INSERT" "OTHER" (fun () ->
      ignore (Database.execute db "INSERT INTO OTHER VALUES (1), (2), (3)"));
  moves "ANALYZE" "OTHER" (fun () -> ignore (Database.analyze db "OTHER"));
  (* per-query TANGO_TMP_* churn moves no other table *)
  let before = both () in
  let tmp = Database.fresh_temp_name db in
  Database.create_table db tmp (Schema.make [ ("A", Value.TInt) ]);
  ignore (Database.execute db (Printf.sprintf "INSERT INTO %s VALUES (1)" tmp));
  Database.drop_table db tmp;
  Alcotest.(check (pair int int)) "temp tables move no other table" before (both ());
  (* drop + re-create never reuses a version *)
  let seen = v "OTHER" in
  Database.drop_table db "OTHER";
  Alcotest.(check (option int)) "dropped: no version" None
    (Database.table_version db "OTHER");
  Database.create_table db "OTHER" (Schema.make [ ("A", Value.TInt) ]);
  Alcotest.(check bool) "re-created: a newer version" true (v "OTHER" > seen)

let test_sql_errors () =
  let db = make_db () in
  let fails sql =
    match Database.query db sql with
    | exception Executor.Sql_error _ -> true
    | exception Catalog.No_such_table _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown table" true (fails "SELECT * FROM NOPE");
  Alcotest.(check bool) "unknown column" true (fails "SELECT Nope FROM POSITION");
  Alcotest.(check bool) "union arity" true
    (fails "SELECT PosID FROM POSITION UNION SELECT PosID, T1 FROM POSITION")

(* ---------------- streaming differential ---------------- *)

(* T spans several pages: 600 rows whose IDs are a permutation of 0..599
   (index order differs from scan order); GRP = position / 50, so rows
   with one GRP sit together and a GRP filter rejects whole pages.  D
   holds 20 keys, multiples of 5, in scrambled order. *)
let stream_n = 600
let s_id i = i * 37 mod stream_n
let s_grp i = i / 50
let s_name i = "n" ^ string_of_int (i mod 17)
let d_keys = List.init 20 (fun j -> j * 7 mod 20 * 5)

let stream_db () =
  let db = Database.create () in
  Database.load_relation db "T"
    (Relation.of_list
       (Schema.make
          [ ("ID", Value.TInt); ("GRP", Value.TInt); ("NAME", Value.TStr);
            ("T1", Value.TDate); ("T2", Value.TDate) ])
       (List.init stream_n (fun i ->
            Tuple.of_list
              [ Value.Int (s_id i); Value.Int (s_grp i); Value.Str (s_name i);
                Value.Date i; Value.Date (i + 10 + (i mod 7)) ])));
  Database.create_index db "T" "ID";
  Database.load_relation db "D"
    (Relation.of_list
       (Schema.make [ ("K", Value.TInt); ("LABEL", Value.TStr) ])
       (List.map
          (fun k -> Tuple.of_list [ Value.Int k; Value.Str ("d" ^ string_of_int k) ])
          d_keys));
  db

(* positions of T in scan order *)
let positions = List.init stream_n Fun.id
let where p = List.filter p positions
let by_id ps = List.sort (fun a b -> compare (s_id a) (s_id b)) ps
let int_row xs = List.map (fun x -> Value.Int x) xs
let pos_of_id = Array.make stream_n 0
let () = List.iter (fun i -> pos_of_id.(s_id i) <- i) positions

(* (name, SQL, join method, expected rows written out here) *)
let stream_shapes : (string * string * Executor.join_method * Value.t list list) list =
  let open Value in
  let max_id g = List.fold_left max 0 (List.map s_id (where (fun i -> s_grp i = g))) in
  let min_id g = List.fold_left min max_int (List.map s_id (where (fun i -> s_grp i = g))) in
  [
    ( "full scan", "SELECT ID, GRP, NAME FROM T", Executor.Auto,
      List.map (fun i -> [ Int (s_id i); Int (s_grp i); Str (s_name i) ]) positions );
    ( "index point", "SELECT ID, NAME FROM T WHERE ID = 42", Executor.Auto,
      [ [ Int 42; Str (s_name pos_of_id.(42)) ] ] );
    ( "index range", "SELECT ID, GRP FROM T WHERE ID < 100", Executor.Auto,
      List.map (fun i -> int_row [ s_id i; s_grp i ]) (by_id (where (fun i -> s_id i < 100))) );
    ( "index range (lower bound)", "SELECT ID FROM T WHERE 550 <= ID", Executor.Auto,
      List.map (fun i -> int_row [ s_id i ]) (by_id (where (fun i -> s_id i >= 550))) );
    ( "filter rejecting whole pages", "SELECT ID FROM T WHERE GRP = 8", Executor.Auto,
      List.map (fun i -> int_row [ s_id i ]) (where (fun i -> s_grp i = 8)) );
    ( "nested derived chain (Q3 shape)",
      "SELECT q2.A AS A, q2.B AS B FROM (SELECT q1.X__ID AS A, q1.X__NAME AS B, \
       q1.X__GRP AS C FROM (SELECT X.GRP AS X__GRP, X.ID AS X__ID, X.NAME AS \
       X__NAME FROM T X WHERE X.GRP < 3) q1) q2",
      Executor.Auto,
      List.map (fun i -> [ Int (s_id i); Str (s_name i) ]) (where (fun i -> s_grp i < 3)) );
    ( "derived chain over a join (Q4 shape)",
      "SELECT q2.L AS L, q2.I AS I FROM (SELECT q1.X__ID AS I, q1.D__LABEL AS L \
       FROM (SELECT D.K AS D__K, D.LABEL AS D__LABEL, X.ID AS X__ID, X.NAME AS \
       X__NAME FROM D, T X WHERE X.ID = D.K) q1) q2",
      Executor.Auto,
      (* index nested loop: D in scan order, each probing T *)
      List.map (fun k -> [ Str ("d" ^ string_of_int k); Int k ]) d_keys );
    ( "merge join", "SELECT D.K, X.NAME FROM D, T X WHERE X.ID = D.K",
      Executor.Force_sort_merge,
      List.map
        (fun k -> [ Int k; Str (s_name pos_of_id.(k)) ])
        (List.sort Int.compare d_keys) );
    ( "nested-loop join", "SELECT D.K, X.ID FROM D, T X WHERE X.ID < D.K AND D.K < 15",
      Executor.Auto,
      List.concat_map
        (fun k ->
          if k >= 15 then []
          else List.map (fun i -> int_row [ k; s_id i ]) (where (fun i -> s_id i < k)))
        d_keys );
    ( "group by", "SELECT GRP, COUNT(*) AS N, MIN(ID) AS M FROM T GROUP BY GRP ORDER BY GRP",
      Executor.Auto,
      List.init 12 (fun g -> int_row [ g; 50; min_id g ]) );
    ( "distinct", "SELECT DISTINCT NAME FROM T", Executor.Auto,
      List.map (fun n -> [ Str n ]) (List.sort_uniq String.compare (List.map s_name positions)) );
    ( "order by output columns", "SELECT NAME, ID FROM T WHERE GRP < 2 ORDER BY NAME DESC, ID",
      Executor.Auto,
      List.map
        (fun i -> [ Str (s_name i); Int (s_id i) ])
        (List.stable_sort
           (fun a b ->
             match String.compare (s_name b) (s_name a) with
             | 0 -> Int.compare (s_id a) (s_id b)
             | c -> c)
           (where (fun i -> s_grp i < 2))) );
    ( "order by an input column", "SELECT NAME FROM T WHERE GRP = 1 ORDER BY ID",
      Executor.Auto,
      List.map (fun i -> [ Str (s_name i) ]) (by_id (where (fun i -> s_grp i = 1))) );
    ( "union", "SELECT GRP FROM T WHERE GRP < 3 UNION SELECT K FROM D WHERE K < 12",
      Executor.Auto, List.map (fun x -> int_row [ x ]) [ 0; 1; 2; 5; 10 ] );
    ( "union all", "SELECT ID FROM T WHERE GRP = 0 UNION ALL SELECT K FROM D",
      Executor.Auto,
      List.map (fun i -> int_row [ s_id i ]) (where (fun i -> s_grp i = 0))
      @ List.map (fun k -> int_row [ k ]) d_keys );
    ( "scalar subquery",
      "SELECT X.ID AS ID, (SELECT MAX(Y.ID) FROM T Y WHERE Y.GRP = X.GRP) AS M \
       FROM T X WHERE X.GRP = 2",
      Executor.Auto,
      List.map (fun i -> int_row [ s_id i; max_id 2 ]) (where (fun i -> s_grp i = 2)) );
    ( "in subquery", "SELECT ID FROM T WHERE ID IN (SELECT K FROM D)", Executor.Auto,
      List.map (fun i -> int_row [ s_id i ]) (where (fun i -> List.mem (s_id i) d_keys)) );
    ("empty index range", "SELECT ID FROM T WHERE ID < 0", Executor.Auto, []);
    ("empty full scan", "SELECT ID FROM T WHERE GRP = 99", Executor.Auto, []);
  ]

let wire_size t =
  let buf = Buffer.create 64 in
  Tuple.serialize buf t;
  Buffer.length buf

(* Every shape, drained through the backend at several prefetch sizes:
   the rows and their order are the expected ones, every round trip but
   the last carries exactly [prefetch] rows, there are ceil(n/prefetch)
   round trips, and the metered bytes are the serialized size of the
   rows (the wire format the meter has always counted). *)
let test_streaming_differential () =
  let db = stream_db () in
  List.iter
    (fun (name, sql, jm, expected) ->
      let expected = List.map Tuple.of_list expected in
      let n = List.length expected in
      let same got = List.length got = n && List.for_all2 Tuple.equal expected got in
      Database.set_join_method db jm;
      Alcotest.(check bool) (name ^ ": materialized rows") true
        (same (Relation.to_list (Database.query db sql)));
      List.iter
        (fun prefetch ->
          let label = Printf.sprintf "%s @%d" name prefetch in
          let b = Backend.in_process ~row_prefetch:prefetch ~roundtrip_spin:0 db in
          let cur = query_backend b sql in
          let rec batches acc =
            match Backend.fetch_batch cur with
            | Some batch -> batches (batch :: acc)
            | None -> List.rev acc
          in
          let got = batches [] in
          Alcotest.(check bool) (label ^ ": rows and order") true
            (same (List.concat_map Array.to_list got));
          Alcotest.(check int) (label ^ ": round trips")
            ((n + prefetch - 1) / prefetch) (Backend.roundtrips b);
          Alcotest.(check bool) (label ^ ": full batches, none empty") true
            (List.for_all (fun bt -> Array.length bt > 0) got
            && List.for_all
                 (fun bt -> Array.length bt = prefetch)
                 (List.filteri (fun i _ -> i < List.length got - 1) got));
          Alcotest.(check int) (label ^ ": tuples") n (Backend.tuples_shipped b);
          Alcotest.(check int) (label ^ ": bytes")
            (List.fold_left (fun acc t -> acc + wire_size t) 0 expected)
            (Backend.bytes_shipped b);
          Alcotest.(check bool) (label ^ ": stays exhausted") true
            (Backend.fetch_batch cur = None))
        [ 1; 7; 10; 1000 ])
    stream_shapes;
  Database.set_join_method db Executor.Auto

(* The ship path allocates at most 1,000 bytes per tuple for a 4-column
   table (about 46 wire bytes per tuple): scan, serialize, parse and the
   batch arrays, with no per-statement copy of the result.  Allocation is
   read by [Runtime.measure]: [Gc.minor_words] (exact between
   collections) plus the major-heap words of [Gc.counters]. *)
let test_ship_path_allocation () =
  let db = Database.create () in
  let rows = 1000 in
  Database.load_relation db "WIDE"
    (Relation.of_list pos_schema
       (List.init rows (fun i ->
            Tuple.of_list
              [ Value.Int i; Value.Str ("emp" ^ string_of_int (i mod 97));
                Value.Date (9000 + i); Value.Date (9100 + i) ])));
  let backend = Backend.in_process ~row_prefetch:10 ~roundtrip_spin:0 db in
  let drain_all () =
    let cur = query_backend backend "SELECT PosID, EmpName, T1, T2 FROM WIDE" in
    let rec go n = match Backend.fetch_batch cur with Some b -> go (n + Array.length b) | None -> n in
    go 0
  in
  ignore (drain_all ());
  Backend.reset_meters backend;
  let shipped, d = Tango_obs.Runtime.measure drain_all in
  let per_tuple = float_of_int d.Tango_obs.Runtime.alloc_bytes /. float_of_int rows in
  Alcotest.(check int) "every row" rows shipped;
  Alcotest.(check int) "100 round trips at prefetch 10" 100 (Backend.roundtrips backend);
  if per_tuple > 1000.0 then
    Alcotest.failf "ship path allocates %.0f B per tuple (budget 1000)" per_tuple

(* One [dbms.query] span per statement — ended at exhaustion, or by
   [close_cursors] when the consumer stops early — and the statement and
   row counters bumped once per statement and once per row. *)
let test_streaming_observability () =
  let module Trace = Tango_obs.Trace in
  let db = stream_db () in
  let b = Backend.in_process ~row_prefetch:10 ~roundtrip_spin:0 db in
  let counter name = Tango_obs.Counter.value (Tango_obs.Counter.make name) in
  let q0 = counter "dbms.queries" and r0 = counter "dbms.rows_returned" in
  Trace.start ();
  Trace.span "root" (fun () ->
      ignore (drain (query_backend b "SELECT ID FROM T WHERE GRP < 4"));
      let early = query_backend b "SELECT ID, NAME FROM T" in
      ignore (Backend.fetch_batch early);
      (* ended once, however often it is closed *)
      Backend.close_cursors b;
      Backend.close_cursors b;
      Alcotest.(check bool) "closed cursor yields nothing" true
        (Backend.fetch_batch early = None));
  let root = Option.get (Trace.finish ()) in
  let spans =
    List.rev
      (Trace.fold (fun acc s -> if s.Trace.name = "dbms.query" then s :: acc else acc) [] root)
  in
  Alcotest.(check int) "one span per statement" 2 (List.length spans);
  let rows = List.map (fun s -> Option.get (Trace.attr_int s "rows")) spans in
  Alcotest.(check int) "exhausted statement: every row" 200 (List.hd rows);
  Alcotest.(check bool) "stopped statement: rows pulled so far" true
    (List.nth rows 1 >= 10 && List.nth rows 1 < stream_n);
  Alcotest.(check int) "statements counted once" 2 (counter "dbms.queries" - q0);
  Alcotest.(check int) "rows counted per row" (200 + List.nth rows 1)
    (counter "dbms.rows_returned" - r0)

(* ---------------- column pruning ---------------- *)

(* Shapes where narrowing a derived table or skipping a stored column
   could go wrong, on the streaming tables: each with its rows written
   out here. *)
let pruning_shapes : (string * string * Executor.join_method * Value.t list list) list =
  let open Value in
  let grp0 = where (fun i -> s_grp i = 0) in
  [
    ( "three-level pass-through (Q4 shape)",
      "SELECT q2.L AS L, q2.I AS I FROM (SELECT q1.X__ID AS I, q1.D__LABEL AS L \
       FROM (SELECT D.K AS D__K, D.LABEL AS D__LABEL, X.ID AS X__ID, X.GRP AS \
       X__GRP, X.NAME AS X__NAME, X.T1 AS X__T1, X.T2 AS X__T2 FROM D, T X \
       WHERE X.ID = D.K) q1) q2 ORDER BY q2.I",
      Executor.Auto,
      List.map (fun k -> [ Str ("d" ^ string_of_int k); Int k ]) (List.sort Int.compare d_keys) );
    ( "derived query in FROM and in a correlated subquery",
      "SELECT a.ID AS ID, (SELECT MIN(b.T2) FROM (SELECT X.ID AS ID, X.GRP AS GRP, \
       X.NAME AS NAME, X.T1 AS T1, X.T2 AS T2 FROM T X WHERE X.GRP < 2) b WHERE \
       b.GRP = a.GRP AND b.T1 > a.T1) AS NXT FROM (SELECT X.ID AS ID, X.GRP AS \
       GRP, X.NAME AS NAME, X.T1 AS T1, X.T2 AS T2 FROM T X WHERE X.GRP < 2) a \
       WHERE a.GRP = 1",
      Executor.Auto,
      List.map
        (fun i ->
          let later = List.init (99 - i) (fun d -> i + 1 + d) in
          [ Int (s_id i);
            (match later with
            | [] -> Null
            | _ -> Date (List.fold_left min max_int (List.map (fun j -> j + 10 + (j mod 7)) later))) ])
        (where (fun i -> s_grp i = 1)) );
    ( "COUNT(*) over a derived table with no column used",
      "SELECT COUNT(*) AS N FROM (SELECT ID, NAME FROM T WHERE GRP = 3) d",
      Executor.Auto, [ [ Int 50 ] ] );
    ( "DISTINCT derived table keeps its list",
      "SELECT d.G AS G FROM (SELECT DISTINCT GRP AS G, NAME AS N FROM T WHERE GRP < 2) d",
      Executor.Auto,
      List.init 34 (fun k -> [ Int (k / 17) ]) );
    ( "GROUP BY derived table narrows",
      "SELECT g.G AS G FROM (SELECT GRP AS G, COUNT(*) AS C, MAX(NAME) AS M FROM T \
       GROUP BY GRP) g",
      Executor.Auto, List.init 12 (fun g -> [ Int g ]) );
    ( "global aggregate derived table keeps its list",
      "SELECT COUNT(*) AS N FROM (SELECT ID AS I, COUNT(*) AS C FROM T) g",
      Executor.Auto, [ [ Int 1 ] ] );
    ( "UNION derived table keeps its list",
      "SELECT u.A AS A FROM (SELECT GRP AS A, ID AS B FROM T WHERE GRP < 2 UNION \
       SELECT K, K FROM D WHERE K < 12) u",
      Executor.Auto,
      List.map
        (fun (a, _) -> [ Int a ])
        (List.sort_uniq Stdlib.compare
           (List.map (fun i -> (s_grp i, s_id i)) (where (fun i -> s_grp i < 2))
           @ List.filter_map (fun k -> if k < 12 then Some (k, k) else None) d_keys)) );
    ( "correlated subquery reads an outer base column",
      "SELECT X.ID AS ID, (SELECT COUNT(*) FROM D WHERE D.K < X.T1) AS C FROM T X \
       WHERE X.GRP = 0",
      Executor.Auto,
      List.map
        (fun i -> int_row [ s_id i; List.length (List.filter (fun k -> k < i) d_keys) ])
        grp0 );
    ( "* at the top level", "SELECT * FROM T WHERE GRP = 4", Executor.Auto,
      List.map
        (fun i ->
          [ Int (s_id i); Int (s_grp i); Str (s_name i); Date i; Date (i + 10 + (i mod 7)) ])
        (where (fun i -> s_grp i = 4)) );
    ( "* inside a derived table",
      "SELECT d.NAME AS NAME FROM (SELECT * FROM T WHERE GRP = 5) d", Executor.Auto,
      List.map (fun i -> [ Str (s_name i) ]) (where (fun i -> s_grp i = 5)) );
    ( "* over a derived table",
      "SELECT * FROM (SELECT ID, NAME, T1 FROM T WHERE GRP = 6) d", Executor.Auto,
      List.map (fun i -> [ Int (s_id i); Str (s_name i); Date i ]) (where (fun i -> s_grp i = 6)) );
    ( "self-join under two aliases",
      "SELECT A.ID AS AI, B.ID AS BI, B.NAME AS BN FROM T A, T B WHERE A.ID = B.GRP \
       AND A.GRP = 0 ORDER BY AI, BI",
      Executor.Auto,
      List.concat_map
        (fun a ->
          List.map
            (fun b -> [ Int (s_id a); Int (s_id b); Str (s_name b) ])
            (by_id (where (fun b -> s_grp b = s_id a))))
        (by_id grp0) );
    ( "index range scan of an unselected key", "SELECT T2 FROM T WHERE ID >= 590",
      Executor.Auto,
      List.map (fun i -> [ Date (i + 10 + (i mod 7)) ]) (by_id (where (fun i -> s_id i >= 590))) );
    ( "index nested-loop probe", "SELECT D.LABEL, X.T1 FROM D, T X WHERE X.ID = D.K",
      Executor.Auto,
      List.map (fun k -> [ Str ("d" ^ string_of_int k); Date pos_of_id.(k) ]) d_keys );
  ]

(* Every streaming shape and every pruning shape yields its rows, in
   order, both materialized and through the backend. *)
let test_pruning_differential () =
  let db = stream_db () in
  List.iter
    (fun (name, sql, jm, expected) ->
      let expected = List.map Tuple.of_list expected in
      let same got =
        List.length got = List.length expected && List.for_all2 Tuple.equal expected got
      in
      Database.set_join_method db jm;
      Alcotest.(check bool) (name ^ ": materialized rows") true
        (same (Relation.to_list (Database.query db sql)));
      let b = Backend.in_process ~row_prefetch:7 ~roundtrip_spin:0 db in
      Alcotest.(check bool) (name ^ ": shipped rows") true
        (same (drain (query_backend b sql))))
    (stream_shapes @ pruning_shapes);
  Database.set_join_method db Executor.Auto

(* The all-DBMS SQL of four paper plans at scale 0.02 reads exactly what
   it read before pruning: the same pages, tuples and index lookups, and
   returns the same number of rows.  Temporal aggregation reads one
   derived query in its outer FROM and in a correlated subquery, each
   needing different columns; narrowing each copy on its own would split
   it into several memoized queries and read POSITION again for each
   ([q2_plan6] would read 6,708 tuples, not 3,354). *)
let test_pruning_paper_counts () =
  let open Tango_workload in
  let db = Database.create () in
  Uis.load ~scale:0.02 db;
  let io = Database.io_stats db in
  let plans =
    [ ("q1_plan3", Queries.q1_plan3 ~position:"POSITION" (), (2933, 0, 5031, 0));
      ( "q2_plan6",
        Queries.q2_plan6 ~position:"POSITION" ~period_end:"1996-01-01" (),
        (2884, 0, 3354, 0) );
      ( "q3_plan1",
        Queries.q3_plan1 ~position:"POSITION" ~start_bound:"1996-01-01" (),
        (1845, 0, 3354, 0) );
      ( "q4_plan_dbms",
        Queries.q4_plan_dbms ~position:"POSITION" ~employee:"EMPLOYEE" (),
        (1677, 0, 3354, 1677) ) ]
  in
  List.iter
    (fun (name, op, (rows, page_reads, tuples_read, index_lookups)) ->
      let dbms_part = match op with Tango_algebra.Op.To_mw sub -> sub | op -> op in
      let q = Tango_sqlgen.Translate.translate dbms_part in
      let before = Tango_storage.Io_stats.copy io in
      let r = Database.query_ast db q in
      let d = Tango_storage.Io_stats.diff io before in
      Alcotest.(check int) (name ^ ": rows") rows (Relation.cardinality r);
      Alcotest.(check int) (name ^ ": page reads") page_reads d.Tango_storage.Io_stats.page_reads;
      Alcotest.(check int) (name ^ ": tuples read") tuples_read d.Tango_storage.Io_stats.tuples_read;
      Alcotest.(check int) (name ^ ": index lookups") index_lookups
        d.Tango_storage.Io_stats.index_lookups)
    plans

(* A one-column read of the 31-column EMPLOYEE at scale 0.02 (999 rows)
   builds one field per row, not 31: at most 500 bytes per row through the
   executor, for a full scan and for an index range scan.  Decoding every
   field costs over 1,300. *)
let test_pruning_allocation () =
  let db = Database.create () in
  Tango_workload.Uis.load ~scale:0.02 db;
  List.iter
    (fun sql ->
      let q = Tango_sql.Parser.query sql in
      let run () = Relation.cardinality (Database.query_ast db q) in
      ignore (run ());
      let rows, d = Tango_obs.Runtime.measure run in
      let per_row = float_of_int d.Tango_obs.Runtime.alloc_bytes /. float_of_int rows in
      Alcotest.(check bool) (sql ^ ": most rows") true (rows > 900);
      if per_row > 500.0 then
        Alcotest.failf "%s allocates %.0f B per row (budget 500)" sql per_row)
    [ "SELECT EmpID FROM EMPLOYEE"; "SELECT E.EmpID FROM EMPLOYEE E WHERE E.EmpID > 10" ]

(* Property: executor selection agrees with a reference filter over a random
   relation, for random range predicates. *)
let prop_selection_agrees =
  QCheck.Test.make ~name:"SQL selection = reference filter" ~count:50
    QCheck.(pair (list (pair (int_bound 100) (int_bound 100))) (int_bound 100))
    (fun (rows, bound) ->
      let db = Database.create () in
      let schema = Schema.make [ ("A", Value.TInt); ("B", Value.TInt) ] in
      Database.load_relation db "R"
        (Relation.of_list schema
           (List.map (fun (a, b) -> Tuple.of_list [ Value.Int a; Value.Int b ]) rows));
      let r =
        Database.query db (Printf.sprintf "SELECT A, B FROM R WHERE A < %d" bound)
      in
      let expected = List.length (List.filter (fun (a, _) -> a < bound) rows) in
      Relation.cardinality r = expected)

(* Property: sort-merge and nested-loop joins agree on random equi-joins. *)
let prop_join_methods_agree =
  QCheck.Test.make ~name:"join methods agree" ~count:30
    QCheck.(pair (list (int_bound 10)) (list (int_bound 10)))
    (fun (ks1, ks2) ->
      let db = Database.create () in
      let schema = Schema.make [ ("K", Value.TInt) ] in
      let rel ks = Relation.of_list schema (List.map (fun k -> Tuple.of_list [ Value.Int k ]) ks) in
      Database.load_relation db "R1" (rel ks1);
      Database.load_relation db "R2" (rel ks2);
      let sql = "SELECT A.K FROM R1 A, R2 B WHERE A.K = B.K" in
      Database.set_join_method db Executor.Force_nested_loop;
      let nl = Database.query db sql in
      Database.set_join_method db Executor.Force_sort_merge;
      let sm = Database.query db sql in
      Relation.equal_multiset nl sm)

let () =
  Alcotest.run "tango_dbms"
    [
      ( "ddl",
        [
          Alcotest.test_case "create/insert/drop" `Quick test_ddl_dml;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select/where" `Quick test_select_where;
          Alcotest.test_case "projection exprs" `Quick test_projection_expressions;
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "having" `Quick test_group_having;
          Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
          Alcotest.test_case "cartesian product" `Quick test_join_product;
          Alcotest.test_case "equi join" `Quick test_equi_join;
          Alcotest.test_case "join methods agree" `Quick test_join_methods_agree;
          Alcotest.test_case "temporal join SQL" `Quick test_temporal_join_sql;
          Alcotest.test_case "correlated scalar subquery" `Quick test_scalar_subquery_correlated;
          Alcotest.test_case "exists / in" `Quick test_exists_in;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "derived table" `Quick test_derived_table;
          Alcotest.test_case "temporal aggregation SQL" `Quick test_temporal_aggregation_sql;
          Alcotest.test_case "index scan correctness" `Quick test_index_scan_agrees_with_full_scan;
          Alcotest.test_case "index nested-loop join" `Quick test_index_nested_loop_join;
          Alcotest.test_case "INL residual filter" `Quick test_inl_with_residual_filter;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "arithmetic in WHERE" `Quick test_arithmetic_in_where;
          Alcotest.test_case "between & nested derived" `Quick test_between_and_nested_derived;
          Alcotest.test_case "errors" `Quick test_sql_errors;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "analyze" `Quick test_analyze_stats;
          Alcotest.test_case "analyze column stats" `Quick test_analyze_column_stats;
          Alcotest.test_case "index DDL keeps stats current" `Quick
            test_index_ddl_keeps_stats_current;
          QCheck_alcotest.to_alcotest prop_analyze_matches_reference;
        ] );
      ( "client",
        [
          Alcotest.test_case "cursor transfer" `Quick test_client_transfer;
          Alcotest.test_case "bulk load" `Quick test_client_bulk_load;
          Alcotest.test_case "accounting pinned" `Quick test_client_accounting;
          Alcotest.test_case "prefetch clamped at connect" `Quick test_prefetch_clamped;
          Alcotest.test_case "table versions" `Quick test_table_versions;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "differential over shapes and prefetch" `Quick
            test_streaming_differential;
          Alcotest.test_case "ship path allocation" `Quick test_ship_path_allocation;
          Alcotest.test_case "spans and counters" `Quick test_streaming_observability;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "differential over shapes" `Quick test_pruning_differential;
          Alcotest.test_case "paper plans: storage counts pinned" `Quick
            test_pruning_paper_counts;
          Alcotest.test_case "allocation per row" `Quick test_pruning_allocation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_selection_agrees;
          QCheck_alcotest.to_alcotest prop_join_methods_agree;
        ] );
    ]
