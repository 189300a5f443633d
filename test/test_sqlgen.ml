(* Tests for the Translator-To-SQL: every translatable operator is compiled
   to SQL, executed by the DBMS, and compared against the reference
   semantics of the algebra. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_dbms

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
       [ (1, "Tom", 12.0, 2, 20); (1, "Jane", 9.0, 5, 25); (2, "Tom", 15.0, 5, 10);
         (2, "Ann", 11.0, 8, 30); (3, "Bob", 20.0, 1, 4) ])

let make_db () =
  let db = Database.create () in
  Database.load_relation db "POSITION" position;
  db

let lookup = function
  | "POSITION" -> position
  | t -> failwith ("no table " ^ t)

(* Translate a DBMS-resident op, run the SQL, compare against reference.
   The SQL result's column names are sanitized, so compare positionally. *)
let check_op ?(ordered = false) name (op : Op.t) =
  let db = make_db () in
  let sql = Tango_sqlgen.Translate.translate op in
  let got = Database.query_ast db sql in
  let want = Reference.eval lookup op in
  let got = Relation.make (Relation.schema want) (Relation.tuples got) in
  Alcotest.(check bool)
    (name ^ ": " ^ Printer.query_to_sql sql)
    true
    (if ordered then Relation.equal_list want got
     else Relation.equal_multiset want got)

let col ?q c = Ast.Col (q, c)
let scan ?alias () = Op.scan ?alias "POSITION" pos_schema

let test_scan () = check_op "scan" (scan ())

let test_select () =
  check_op "select"
    (Op.select (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0))) (scan ()))

let test_project () =
  check_op "project"
    (Op.project
       [ (col "PosID", "P"); (Ast.Binop (Ast.Mul, col "PayRate", Ast.Lit (Value.Int 2)), "Double") ]
       (scan ()))

let test_sort () =
  check_op ~ordered:true "sort"
    (Op.sort [ Order.asc "PosID"; { Order.attr = "T1"; dir = Order.Desc } ] (scan ()))

let test_join () =
  check_op "join"
    (Op.join
       (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
       (scan ~alias:"A" ()) (scan ~alias:"B" ()))

let test_product () =
  check_op "product" (Op.Product { left = scan ~alias:"A" (); right = scan ~alias:"B" () })

let test_temporal_join () =
  check_op "temporal join"
    (Op.temporal_join
       (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
       (scan ~alias:"A" ()) (scan ~alias:"B" ()))

let test_taggr_count () =
  check_op ~ordered:true "taggr count"
    (Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "CNT" ] (scan ()))

let test_taggr_multi_agg () =
  check_op ~ordered:true "taggr sum/min/max"
    (Op.temporal_aggregate [ "POSITION.PosID" ]
       [ Op.count_star "CNT"; Op.agg Ast.Sum "PayRate" "S";
         Op.agg Ast.Min "PayRate" "MN"; Op.agg Ast.Max "PayRate" "MX" ]
       (scan ()))

let test_taggr_no_group () =
  check_op ~ordered:true "taggr global"
    (Op.temporal_aggregate [] [ Op.count_star "CNT" ] (scan ()))

let test_dup_elim () =
  check_op "dup elim"
    (Op.Dup_elim (Op.project [ (col "PosID", "P") ] (scan ())))

let test_composed () =
  (* selection over temporal join over selections — a Query-2-like DB part *)
  check_op "composed"
    (Op.sort [ Order.asc "T1" ]
       (Op.select
          (Ast.Binop (Ast.Gt, col "T1", Ast.Lit (Value.Date 3)))
          (Op.temporal_join
             (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
             (Op.select
                (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)))
                (scan ~alias:"A" ()))
             (scan ~alias:"B" ()))))

let test_untranslatable () =
  let fails op =
    match Tango_sqlgen.Translate.translate op with
    | exception Tango_sqlgen.Translate.Untranslatable _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "coalesce" true (fails (Op.Coalesce (scan ())));
  Alcotest.(check bool) "difference" true
    (fails (Op.Difference { left = scan (); right = scan () }));
  Alcotest.(check bool) "embedded T^M" true (fails (Op.to_mw (scan ())))

let test_to_db_leaf () =
  (* A To_db boundary becomes a reference to its temp table. *)
  let db = make_db () in
  (* materialize the would-be middleware result by hand *)
  let mw_result =
    Reference.eval lookup
      (Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "CNT" ] (scan ()))
  in
  let sanitized = Tango_sqlgen.Translate.temp_table_schema (Relation.schema mw_result) in
  Database.load_relation db "TMP7"
    (Relation.make sanitized (Relation.tuples mw_result));
  let op =
    Op.sort [ Order.asc "CNT" ]
      (Op.to_db
         (Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "CNT" ]
            (Op.to_mw (scan ()))))
  in
  let sql = Tango_sqlgen.Translate.translate ~temp_name:(fun _ -> "TMP7") op in
  let got = Database.query_ast db sql in
  Alcotest.(check int) "rows through temp table"
    (Relation.cardinality mw_result) (Relation.cardinality got)

let test_scan_inlined_in_join () =
  (* scans appear as base tables in FROM (view merging), enabling the
     DBMS's index access paths *)
  let op =
    Op.join
      (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
      (scan ~alias:"A" ()) (scan ~alias:"B" ())
  in
  match Tango_sqlgen.Translate.translate op with
  | Ast.Select { from = [ Ast.Table ("POSITION", Some "A");
                          Ast.Table ("POSITION", Some "B") ]; _ } -> ()
  | q ->
      Alcotest.fail
        ("expected inlined base tables, got " ^ Printer.query_to_sql q)

let test_selection_merged_into_where () =
  (* σ over a scan becomes WHERE on the base table, not a derived table *)
  let op =
    Op.temporal_join
      (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
      (Op.select
         (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)))
         (scan ~alias:"A" ()))
      (scan ~alias:"B" ())
  in
  match Tango_sqlgen.Translate.translate op with
  | Ast.Select { from; where = Some w; _ } ->
      Alcotest.(check bool) "both sides are base tables" true
        (List.for_all (function Ast.Table _ -> true | _ -> false) from);
      Alcotest.(check bool) "payrate predicate in WHERE" true
        (let rec mentions = function
           | Ast.Col (_, "PayRate") -> true
           | Ast.Binop (_, a, b) -> mentions a || mentions b
           | Ast.Greatest es | Ast.Least es -> List.exists mentions es
           | _ -> false
         in
         mentions w)
  | q -> Alcotest.fail ("unexpected shape: " ^ Printer.query_to_sql q)

(* Qualified attribute names leave the DBMS as SQL-safe column names. *)
let test_sql_name () =
  let names op =
    Schema.names
      (Relation.schema
         (Database.query_ast (make_db ()) (Tango_sqlgen.Translate.translate op)))
  in
  Alcotest.(check bool) "dots" true
    (List.mem "A__PosID" (names (Op.sort [ Order.asc "A.PosID" ] (scan ~alias:"A" ()))));
  Alcotest.(check bool) "plain" true
    (List.mem "PosID"
       (names (Op.project [ (Ast.Col (None, "PosID"), "PosID") ] (scan ()))))

(* property: random select/project/sort pipelines agree with reference *)
let pipeline_gen =
  QCheck.Gen.(
    let pred_g =
      oneof
        [
          return (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)));
          return (Ast.Binop (Ast.Lt, col "T1", Ast.Lit (Value.Date 6)));
          return (Ast.Binop (Ast.Eq, col "PosID", Ast.Lit (Value.Int 1)));
        ]
    in
    let step_g =
      oneof
        [
          map (fun p op -> Op.select p op) pred_g;
          return (fun op -> Op.sort [ Order.asc "T1" ] op);
          return (fun op -> Op.project [ (col "PosID", "PosID"); (col "T1", "T1") ] op);
        ]
    in
    map
      (fun steps ->
        List.fold_left
          (fun op step ->
            match op with
            | Op.Project _ -> op (* projection may drop needed attrs; stop *)
            | _ -> step op)
          (scan ()) steps)
      (list_size (int_range 1 4) step_g))

(* ---------- round-trip: emitted SQL re-parses and re-prints fixed ---------- *)

(* Every SQL string the translator emits must be within the subset our own
   parser accepts, and pretty-printing must be a fixed point of
   parse-then-print — otherwise the middleware could ship SQL it cannot
   itself reason about. *)
let roundtrip_query name (q : Ast.query) =
  let sql = Printer.query_to_sql q in
  let reparsed =
    try Parser.query sql
    with e ->
      Alcotest.failf "%s: emitted SQL does not re-parse (%s):\n  %s" name
        (Printexc.to_string e) sql
  in
  Alcotest.(check string)
    (name ^ ": parse-then-print fixed point")
    sql
    (Printer.query_to_sql reparsed)

let test_roundtrip_operators () =
  List.iter
    (fun (name, op) ->
      roundtrip_query name (Tango_sqlgen.Translate.translate op))
    [
      ("scan", scan ());
      ( "select",
        Op.select
          (Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)))
          (scan ()) );
      ( "project",
        Op.project
          [ (col "PosID", "P");
            (Ast.Binop (Ast.Mul, col "PayRate", Ast.Lit (Value.Int 2)), "D") ]
          (scan ()) );
      ( "sort",
        Op.sort
          [ Order.asc "PosID"; { Order.attr = "T1"; dir = Order.Desc } ]
          (scan ()) );
      ( "temporal join",
        Op.temporal_join
          (Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID"))
          (scan ~alias:"A" ()) (scan ~alias:"B" ()) );
      ( "taggr",
        Op.temporal_aggregate [ "POSITION.PosID" ]
          [ Op.count_star "CNT"; Op.agg Ast.Max "PayRate" "MX" ]
          (scan ()) );
    ]

(* The same property over the real pipeline: optimize every workload query
   and round-trip each TRANSFER^M statement the chosen plan ships to the
   DBMS. *)
let test_roundtrip_workload () =
  let db = Database.create () in
  Tango_workload.Uis.load ~scale:0.002 db;
  let mw = Tango_core.Middleware.connect ~roundtrip_spin:0 db in
  let transfers = ref 0 in
  List.iter
    (fun (name, sql) ->
      let report = Tango_core.Middleware.query mw sql in
      Tango_core.Exec_plan.iter
        (fun n ->
          match n.Tango_core.Exec_plan.kind with
          | Tango_core.Exec_plan.Transfer_m { sql = q; _ } ->
              incr transfers;
              roundtrip_query name q
          | _ -> ())
        report.Tango_core.Middleware.exec)
    Tango_workload.Queries.workload;
  Alcotest.(check bool) "workload plans contain transfers" true (!transfers > 0)

let prop_pipeline =
  QCheck.Test.make ~name:"random pipelines translate correctly" ~count:60
    (QCheck.make pipeline_gen) (fun op ->
      let db = make_db () in
      let sql = Tango_sqlgen.Translate.translate op in
      let got = Database.query_ast db sql in
      let want = Reference.eval lookup op in
      Relation.equal_multiset want
        (Relation.make (Relation.schema want) (Relation.tuples got)))

let () =
  Alcotest.run "tango_sqlgen"
    [
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "temporal join" `Quick test_temporal_join;
          Alcotest.test_case "taggr count" `Quick test_taggr_count;
          Alcotest.test_case "taggr multi-agg" `Quick test_taggr_multi_agg;
          Alcotest.test_case "taggr global" `Quick test_taggr_no_group;
          Alcotest.test_case "dup elim" `Quick test_dup_elim;
          Alcotest.test_case "composed" `Quick test_composed;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "untranslatable ops" `Quick test_untranslatable;
          Alcotest.test_case "T^D leaf" `Quick test_to_db_leaf;
          Alcotest.test_case "scans inlined" `Quick test_scan_inlined_in_join;
          Alcotest.test_case "selection merged" `Quick test_selection_merged_into_where;
          Alcotest.test_case "name sanitizing" `Quick test_sql_name;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "operators" `Quick test_roundtrip_operators;
          Alcotest.test_case "workload transfers" `Quick test_roundtrip_workload;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_pipeline ]);
    ]
