(* Tests for the temporal-SQL front end: parsing + compilation to the
   initial algebra plan, checked against reference semantics. *)

open Tango_rel
open Tango_algebra

let pos_schema =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("PayRate", Value.TFloat); ("T1", Value.TDate); ("T2", Value.TDate) ]

let position =
  Relation.of_list pos_schema
    (List.map
       (fun (p, n, pay, a, b) ->
         Tuple.of_list
           [ Value.Int p; Value.Str n; Value.Float pay; Value.Date a; Value.Date b ])
       [ (1, "Tom", 12.0, 2, 20); (1, "Jane", 9.0, 5, 25); (2, "Tom", 15.0, 5, 10) ])

let lookup_schema = function
  | "POSITION" -> pos_schema
  | t -> failwith ("no schema for " ^ t)

let lookup_rel = function
  | "POSITION" -> position
  | t -> failwith ("no table " ^ t)

let compile sql = Tango_tsql.Compile.compile ~lookup:lookup_schema sql
let eval sql = Reference.eval lookup_rel (compile sql)

let test_plain_select () =
  let r = eval "SELECT PosID, EmpName FROM POSITION WHERE PayRate > 10" in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r);
  Alcotest.(check (list string)) "schema" [ "PosID"; "EmpName" ]
    (Schema.names (Relation.schema r))

let test_initial_plan_shape () =
  let plan =
    Tango_tsql.Compile.initial_plan ~lookup:lookup_schema
      "SELECT PosID FROM POSITION"
  in
  (match plan with
  | Op.To_mw _ -> ()
  | _ -> Alcotest.fail "initial plan must be T^M-rooted");
  Op.validate plan;
  Alcotest.(check bool) "everything below is DBMS" true
    (match plan with Op.To_mw inner -> Op.location inner = Op.Db | _ -> false)

let test_validtime_taggr () =
  let r =
    eval
      "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID \
       ORDER BY PosID"
  in
  (* Figure 3(c) with the PayRate column present: same four intervals. *)
  Alcotest.(check int) "four rows" 4 (Relation.cardinality r);
  Alcotest.(check (list string)) "schema" [ "PosID"; "CNT"; "T1"; "T2" ]
    (Schema.names (Relation.schema r))

let test_validtime_join () =
  let r =
    eval
      "VALIDTIME SELECT A.PosID, A.EmpName AS E1, B.EmpName AS E2 FROM \
       POSITION A, POSITION B WHERE A.PosID = B.PosID AND A.EmpName < \
       B.EmpName ORDER BY A.PosID"
  in
  (* Jane+Tom overlap on position 1 -> one pair (E1 < E2). *)
  Alcotest.(check int) "one pair" 1 (Relation.cardinality r);
  let s = Relation.schema r in
  Alcotest.(check bool) "period attrs appended" true
    (Schema.mem s "T1" && Schema.mem s "T2");
  let t = (Relation.tuples r).(0) in
  Alcotest.(check int) "intersection start" 5
    (Value.to_int (Tuple.field s t "T1"));
  Alcotest.(check int) "intersection end" 20
    (Value.to_int (Tuple.field s t "T2"))

let test_derived_source () =
  let r =
    eval
      "VALIDTIME SELECT A.PosID, A.CNT FROM (VALIDTIME SELECT PosID, \
       COUNT(*) AS CNT FROM POSITION GROUP BY PosID) A, POSITION B WHERE \
       A.PosID = B.PosID ORDER BY A.PosID"
  in
  (* This is the paper's Figure 3(b) query modulo projection: 5 tuples. *)
  Alcotest.(check int) "five rows" 5 (Relation.cardinality r)

let test_selection_pushdown_shape () =
  (* single-source conjuncts must sit below the join in the initial plan *)
  let plan =
    compile
      "VALIDTIME SELECT A.PosID FROM POSITION A, POSITION B WHERE A.PosID = \
       B.PosID AND B.PayRate > 10"
  in
  let rec has_select_below_join = function
    | Op.Temporal_join { left; right; _ } ->
        let is_selected = function
          | Op.Select _ -> true
          | _ -> false
        in
        is_selected left || is_selected right
    | op -> List.exists has_select_below_join (Op.children op)
  in
  Alcotest.(check bool) "pushdown happened" true (has_select_below_join plan)

let test_order_by_direction () =
  let r = eval "SELECT PosID, T1 FROM POSITION ORDER BY T1 DESC" in
  let t1s = Array.to_list (Array.map Value.to_int (Relation.column r "T1")) in
  Alcotest.(check (list int)) "descending" [ 5; 5; 2 ] t1s

let test_required_order () =
  let o = Tango_tsql.Compile.required_order "SELECT PosID FROM POSITION ORDER BY PosID, T1 DESC" in
  Alcotest.(check bool) "two keys" true
    (Order.equal o [ Order.asc "PosID"; { Order.attr = "T1"; dir = Order.Desc } ])

let test_unsupported () =
  let fails sql =
    match compile sql with
    | exception Tango_tsql.Compile.Unsupported _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "group without validtime" true
    (fails "SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID");
  Alcotest.(check bool) "union" true
    (fails "SELECT PosID FROM POSITION UNION SELECT PosID FROM POSITION");
  Alcotest.(check bool) "validtime over non-temporal" true
    (fails
       "VALIDTIME SELECT X.PosID FROM (SELECT PosID FROM POSITION) X")

let test_aggregates_variants () =
  let r =
    eval
      "VALIDTIME SELECT PosID, COUNT(*) AS C, SUM(PayRate) AS S, \
       MIN(PayRate) AS MN FROM POSITION GROUP BY PosID ORDER BY PosID"
  in
  let s = Relation.schema r in
  Alcotest.(check (list string)) "schema"
    [ "PosID"; "C"; "S"; "MN"; "T1"; "T2" ] (Schema.names s);
  (* interval [5,20) of position 1 has Tom+Jane: sum 21, min 9 *)
  let row =
    Array.to_list (Relation.tuples r)
    |> List.find (fun t ->
           Value.to_int (Tuple.field s t "PosID") = 1
           && Value.to_int (Tuple.field s t "T1") = 5)
  in
  Alcotest.(check (float 0.01)) "sum" 21.0 (Value.to_float (Tuple.field s row "S"));
  Alcotest.(check (float 0.01)) "min" 9.0 (Value.to_float (Tuple.field s row "MN"))

let () =
  Alcotest.run "tango_tsql"
    [
      ( "compile",
        [
          Alcotest.test_case "plain select" `Quick test_plain_select;
          Alcotest.test_case "initial plan shape" `Quick test_initial_plan_shape;
          Alcotest.test_case "validtime aggregation" `Quick test_validtime_taggr;
          Alcotest.test_case "validtime join" `Quick test_validtime_join;
          Alcotest.test_case "derived source" `Quick test_derived_source;
          Alcotest.test_case "selection pushdown" `Quick test_selection_pushdown_shape;
          Alcotest.test_case "order by desc" `Quick test_order_by_direction;
          Alcotest.test_case "required order" `Quick test_required_order;
          Alcotest.test_case "unsupported constructs" `Quick test_unsupported;
          Alcotest.test_case "aggregate variants" `Quick test_aggregates_variants;
        ] );
    ]
