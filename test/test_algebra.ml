(* Tests for the logical algebra: schema/location inference, validation,
   and the reference evaluator (which defines operator semantics). *)

open Tango_rel
open Tango_sql
open Tango_algebra

let pos_schema =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("T1", Value.TDate); ("T2", Value.TDate) ]

(* Figure 3(a) POSITION. *)
let position =
  Relation.of_list pos_schema
    (List.map
       (fun (p, n, a, b) ->
         Tuple.of_list [ Value.Int p; Value.Str n; Value.Date a; Value.Date b ])
       [ (1, "Tom", 2, 20); (1, "Jane", 5, 25); (2, "Tom", 5, 10) ])

let lookup = function
  | "POSITION" -> position
  | t -> failwith ("unknown table " ^ t)

let col ?q c = Ast.Col (q, c)
let eval = Reference.eval lookup
let scan ?alias () = Op.scan ?alias "POSITION" pos_schema

let test_scan_schema () =
  let s = Op.schema (scan ()) in
  Alcotest.(check (list string)) "qualified by table"
    [ "POSITION.PosID"; "POSITION.EmpName"; "POSITION.T1"; "POSITION.T2" ]
    (Schema.names s);
  let s = Op.schema (scan ~alias:"A" ()) in
  Alcotest.(check bool) "alias qualification" true (Schema.mem s "A.PosID")

let test_period_attrs () =
  (match Op.period_attrs (Op.schema (scan ~alias:"A" ())) with
  | Some ("A.T1", "A.T2") -> ()
  | _ -> Alcotest.fail "period attrs not found");
  Alcotest.(check bool) "non temporal" true
    (Op.period_attrs (Schema.make [ ("X", Value.TInt) ]) = None)

let taggr_op =
  Op.temporal_aggregate [ "PosID" ] [ Op.count_star "CNT" ] (scan ())

let test_taggr_schema () =
  let s = Op.schema taggr_op in
  Alcotest.(check (list string)) "taggr schema"
    [ "PosID"; "T1"; "T2"; "CNT" ] (Schema.names s);
  Alcotest.(check bool) "count is int" true
    (Schema.dtype_of s "CNT" = Value.TInt)

let test_tjoin_schema () =
  let tj =
    Op.temporal_join
      (Ast.Binop (Ast.Eq, col "PosID", col ~q:"B" "PosID"))
      taggr_op
      (scan ~alias:"B" ())
  in
  let s = Op.schema tj in
  Alcotest.(check (list string)) "tjoin schema"
    [ "PosID"; "CNT"; "B.PosID"; "B.EmpName"; "T1"; "T2" ]
    (Schema.names s)

let test_ill_formed () =
  let fails op =
    match Op.validate op with
    | exception Op.Ill_formed _ -> true
    | () -> false
  in
  Alcotest.(check bool) "bad predicate attr" true
    (fails (Op.select (Ast.Binop (Ast.Eq, col "Nope", Ast.Lit (Value.Int 1))) (scan ())));
  Alcotest.(check bool) "bad group attr" true
    (fails (Op.temporal_aggregate [ "Nope" ] [ Op.count_star "C" ] (scan ())));
  Alcotest.(check bool) "taggr over non-temporal" true
    (fails
       (Op.temporal_aggregate [ "PosID" ] [ Op.count_star "C" ]
          (Op.project_attrs [ "PosID" ] (scan ()))));
  (* T^D over a DBMS-resident relation is ill-formed. *)
  Alcotest.(check bool) "T^D over DB" true (fails (Op.to_db (scan ())));
  (* Mixed-location join. *)
  Alcotest.(check bool) "mixed locations" true
    (fails
       (Op.join (Ast.Lit (Value.Bool true)) (scan ()) (Op.to_mw (scan ~alias:"B" ()))))

let test_locations () =
  Alcotest.(check bool) "scan in db" true (Op.location (scan ()) = Op.Db);
  Alcotest.(check bool) "tm in mw" true (Op.location (Op.to_mw (scan ())) = Op.Mw);
  let plan = Op.to_db (Op.select (Ast.Lit (Value.Bool true)) (Op.to_mw (scan ()))) in
  Alcotest.(check bool) "td back to db" true (Op.location plan = Op.Db);
  Op.validate plan

(* --- one-pass validation against the recursive definition --- *)

(* The definition Op.validate replaced, kept as the reference: at every
   node, re-derive the whole subtree's schema and location, then check the
   node's own transfer and recurse. *)
let rec validate_reference (op : Op.t) : unit =
  ignore (Op.schema op);
  ignore (Op.location op);
  match op with
  | Op.Scan _ -> ()
  | Op.To_mw arg ->
      if Op.location arg <> Op.Db then
        Op.ill_formed "T^M over a middleware relation";
      validate_reference arg
  | Op.To_db arg ->
      if Op.location arg <> Op.Mw then Op.ill_formed "T^D over a DBMS relation";
      validate_reference arg
  | Op.Select { arg; _ } | Op.Project { arg; _ } | Op.Sort { arg; _ }
  | Op.Temporal_aggregate { arg; _ } | Op.Dup_elim arg | Op.Coalesce arg ->
      validate_reference arg
  | Op.Product { left; right } | Op.Join { left; right; _ }
  | Op.Temporal_join { left; right; _ } | Op.Difference { left; right } ->
      validate_reference left;
      validate_reference right

let outcome f op =
  match f op with () -> "ok" | exception e -> Printexc.to_string e

let same_verdict name op =
  Alcotest.(check string) name (outcome validate_reference op) (outcome Op.validate op)

let bad_pred = Ast.Binop (Ast.Eq, col "Nope", Ast.Lit (Value.Int 1))
let true_pred = Ast.Lit (Value.Bool true)

(* Each defect alone, then pairs of defects competing for the first
   report. *)
let test_validate_matches_reference () =
  let unresolved = Op.select bad_pred (scan ()) in
  let mixed = Op.join true_pred (scan ()) (Op.to_mw (scan ~alias:"B" ())) in
  let tm_over_mw = Op.to_mw (Op.to_mw (scan ())) in
  let td_over_db = Op.to_db (scan ()) in
  let cases =
    [
      ("well-formed", Op.to_db (Op.select true_pred (Op.to_mw (scan ()))));
      ("unresolved predicate", unresolved);
      ("mixed binary locations", mixed);
      ("T^M over a middleware argument", tm_over_mw);
      ("T^D over a DBMS argument", td_over_db);
      ("bad group attribute", Op.temporal_aggregate [ "Nope" ] [ Op.count_star "C" ] (scan ()));
      ("unresolved below mixed", Op.join true_pred unresolved (Op.to_mw (scan ~alias:"B" ())));
      ("mixed below unresolved", Op.select bad_pred mixed);
      ("mixed left, unresolved right",
       Op.Product { left = mixed; right = Op.select bad_pred (scan ~alias:"C" ()) });
      ("T^M over MW below mixed", Op.join true_pred tm_over_mw (scan ~alias:"B" ()));
      ("T^D over DB above T^M over MW", Op.to_db (Op.to_mw tm_over_mw));
      ("T^M over MW above T^D over DB", Op.to_mw (Op.to_mw (Op.to_mw td_over_db)));
      ("two transfer defects side by side",
       Op.join true_pred (Op.to_db (Op.to_db (Op.to_mw (scan ()))))
         (Op.to_db (Op.to_db (Op.to_mw (scan ~alias:"B" ())))));
      ("transfer defect and unresolved predicate",
       Op.to_mw (Op.select bad_pred (Op.to_mw (Op.to_mw (scan ())))));
      ("transfer defect and mixed locations",
       Op.join true_pred td_over_db (Op.to_mw (scan ~alias:"B" ())));
    ]
  in
  List.iter (fun (name, op) -> same_verdict name op) cases

(* Random trees over a small grammar whose every constructor can carry a
   defect. *)
let gen_tree =
  let open QCheck.Gen in
  let leaf = oneofl [ scan (); scan ~alias:"B" () ] in
  sized_size (int_bound 6)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [
               (1, leaf);
               (2, map (fun a -> Op.to_mw a) sub);
               (2, map (fun a -> Op.to_db a) sub);
               (1, map2 (fun p a -> Op.select p a) (oneofl [ true_pred; bad_pred ]) sub);
               (1, map (fun a -> Op.temporal_aggregate [ "PosID" ] [ Op.count_star "C" ] a) sub);
               (1, map2 (fun left right -> Op.Product { left; right }) sub sub);
               (1, map2 (fun l r -> Op.join (col "PosID") l r) sub sub);
             ]))

let prop_validate_matches_reference =
  QCheck.Test.make ~count:500 ~name:"one-pass validate = recursive definition"
    (QCheck.make ~print:Op.to_string gen_tree)
    (fun op -> outcome validate_reference op = outcome Op.validate op)

(* --- reference semantics --- *)

let test_ref_select_project () =
  let op =
    Op.project_attrs [ "EmpName" ]
      (Op.select
         (Ast.Binop (Ast.Eq, col "PosID", Ast.Lit (Value.Int 1)))
         (scan ()))
  in
  let r = eval op in
  Alcotest.(check int) "two tuples" 2 (Relation.cardinality r);
  Alcotest.(check (list string)) "schema" [ "EmpName" ]
    (Schema.names (Relation.schema r))

let test_ref_sort () =
  let op = Op.sort [ Order.desc "T1" ] (scan ()) in
  let r = eval op in
  let t1s = Array.to_list (Array.map Value.to_int (Relation.column r "T1")) in
  Alcotest.(check (list int)) "desc" [ 5; 5; 2 ] t1s

(* Figure 3(c): the temporal aggregation result. *)
let test_ref_taggr_figure3c () =
  let r = eval taggr_op in
  let rows =
    Array.to_list
      (Array.map
         (fun t -> Array.to_list (Array.map Value.to_int t))
         (Relation.tuples r))
  in
  Alcotest.(check (list (list int))) "figure 3(c)"
    [ [ 1; 2; 5; 1 ]; [ 1; 5; 20; 2 ]; [ 1; 20; 25; 1 ]; [ 2; 5; 10; 1 ] ]
    rows

(* Figure 3(b): temporal aggregation ⋈ᵀ POSITION, sorted by position. *)
let test_ref_query_figure3b () =
  let tj =
    Op.temporal_join
      (Ast.Binop (Ast.Eq, col "PosID", col ~q:"B" "PosID"))
      taggr_op
      (scan ~alias:"B" ())
  in
  let final =
    Op.sort
      [ Order.asc "PosID" ]
      (Op.project
         [ (col "PosID", "PosID"); (col ~q:"B" "EmpName", "EmpName");
           (col "T1", "T1"); (col "T2", "T2"); (col "CNT", "COUNTofPosID") ]
         tj)
  in
  let r = eval final in
  let rows =
    Array.to_list
      (Array.map
         (fun t ->
           ( Value.to_int t.(0),
             Value.to_string t.(1),
             Value.to_int t.(2),
             Value.to_int t.(3),
             Value.to_int t.(4) ))
         (Relation.tuples r))
  in
  let expected =
    [ (1, "'Tom'", 2, 5, 1); (1, "'Tom'", 5, 20, 2); (1, "'Jane'", 5, 20, 2);
      (1, "'Jane'", 20, 25, 1); (2, "'Tom'", 5, 10, 1) ]
  in
  Alcotest.(check int) "five tuples" 5 (List.length rows);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "expected tuple present" true (List.mem e rows))
    expected

let test_ref_join_vs_product () =
  let pred = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID") in
  let j = eval (Op.join pred (scan ~alias:"A" ()) (scan ~alias:"B" ())) in
  let p =
    eval
      (Op.select pred
         (Op.Product { left = scan ~alias:"A" (); right = scan ~alias:"B" () }))
  in
  Alcotest.(check bool) "join = select over product" true
    (Relation.equal_multiset j p);
  Alcotest.(check int) "5 matches" 5 (Relation.cardinality j)

let test_ref_dup_elim () =
  let doubled =
    Op.Difference
      {
        left = scan ();
        right = Op.select (Ast.Lit (Value.Bool false)) (scan ~alias:"B" ());
      }
  in
  ignore doubled;
  let r = eval (Op.Dup_elim (Op.project_attrs [ "EmpName" ] (scan ()))) in
  Alcotest.(check int) "tom and jane" 2 (Relation.cardinality r)

let test_ref_difference () =
  let minus_pos1 =
    Op.Difference
      {
        left = scan ();
        right =
          Op.select
            (Ast.Binop (Ast.Eq, col "PosID", Ast.Lit (Value.Int 1)))
            (scan ~alias:"B" ());
      }
  in
  let r = eval minus_pos1 in
  Alcotest.(check int) "only pos 2 left" 1 (Relation.cardinality r)

let test_ref_coalesce () =
  (* Value-equivalent tuples with adjacent/overlapping periods merge. *)
  let schema = Schema.make [ ("K", Value.TStr); ("T1", Value.TDate); ("T2", Value.TDate) ] in
  let rel =
    Relation.of_list schema
      (List.map
         (fun (k, a, b) -> Tuple.of_list [ Value.Str k; Value.Date a; Value.Date b ])
         [ ("x", 1, 5); ("x", 5, 9); ("x", 20, 25); ("y", 3, 6) ])
  in
  let lookup = function "R" -> rel | _ -> failwith "?" in
  let r = Reference.eval lookup (Op.Coalesce (Op.scan "R" schema)) in
  Alcotest.(check int) "three tuples" 3 (Relation.cardinality r);
  let xs =
    List.filter
      (fun t -> Value.equal t.(0) (Value.Str "x"))
      (Relation.to_list r)
  in
  Alcotest.(check bool) "x merged [1,9)" true
    (List.exists
       (fun t -> Value.to_int t.(1) = 1 && Value.to_int t.(2) = 9)
       xs)

(* property: temporal join periods always overlap both inputs *)
let period_row_gen =
  QCheck.Gen.(
    map
      (fun (p, t1, d) -> (p, t1, t1 + 1 + d))
      (triple (int_range 1 3) (int_range 0 30) (int_range 0 10)))

let rel_of_rows rows =
  let schema =
    Schema.make [ ("K", Value.TInt); ("T1", Value.TDate); ("T2", Value.TDate) ]
  in
  Relation.of_list schema
    (List.map
       (fun (k, a, b) -> Tuple.of_list [ Value.Int k; Value.Date a; Value.Date b ])
       rows)

let prop_tjoin_intersections =
  QCheck.Test.make ~name:"temporal join emits true intersections" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 8) (QCheck.make period_row_gen))
        (list_of_size (QCheck.Gen.int_bound 8) (QCheck.make period_row_gen)))
    (fun (lrows, rrows) ->
      let l = rel_of_rows lrows and r = rel_of_rows rrows in
      let schema = Relation.schema l in
      let lookup = function "L" -> l | "R" -> r | _ -> failwith "?" in
      let op =
        Op.temporal_join
          (Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K"))
          (Op.scan ~alias:"A" "L" (Schema.unqualify schema))
          (Op.scan ~alias:"B" "R" (Schema.unqualify schema))
      in
      let out = Reference.eval lookup op in
      (* every output period is non-empty and within both K-matched pairs *)
      Array.for_all
        (fun t ->
          let s = Relation.schema out in
          let t1 = Value.to_int (Tuple.field s t "T1")
          and t2 = Value.to_int (Tuple.field s t "T2") in
          t1 < t2)
        (Relation.tuples out)
      &&
      (* output count equals brute-force count *)
      let brute =
        List.length
          (List.concat_map
             (fun (k1, a1, b1) ->
               List.filter
                 (fun (k2, a2, b2) -> k1 = k2 && a1 < b2 && b1 > a2)
                 rrows)
             lrows)
      in
      Relation.cardinality out = brute)

let prop_taggr_counts_cover =
  QCheck.Test.make ~name:"taggr counts = covering tuples at midpoint" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (QCheck.make period_row_gen))
    (fun rows ->
      let r = rel_of_rows rows in
      let lookup = function "R" -> r | _ -> failwith "?" in
      let op =
        Op.temporal_aggregate [ "R.K" ] [ Op.count_star "CNT" ]
          (Op.scan "R" (Schema.unqualify (Relation.schema r)))
      in
      let out = Reference.eval lookup op in
      let s = Relation.schema out in
      Array.for_all
        (fun t ->
          let k = Value.to_int (Tuple.field s t "R.K") in
          let t1 = Value.to_int (Tuple.field s t "T1") in
          let cnt = Value.to_int (Tuple.field s t "CNT") in
          let cover =
            List.length
              (List.filter (fun (k', a, b) -> k' = k && a <= t1 && b > t1) rows)
          in
          cover = cnt)
        (Relation.tuples out))

let () =
  Alcotest.run "tango_algebra"
    [
      ( "schema",
        [
          Alcotest.test_case "scan qualification" `Quick test_scan_schema;
          Alcotest.test_case "period attrs" `Quick test_period_attrs;
          Alcotest.test_case "taggr schema" `Quick test_taggr_schema;
          Alcotest.test_case "tjoin schema" `Quick test_tjoin_schema;
          Alcotest.test_case "ill-formed plans" `Quick test_ill_formed;
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "validate = recursive definition" `Quick
            test_validate_matches_reference;
          QCheck_alcotest.to_alcotest prop_validate_matches_reference;
        ] );
      ( "reference",
        [
          Alcotest.test_case "select/project" `Quick test_ref_select_project;
          Alcotest.test_case "sort" `Quick test_ref_sort;
          Alcotest.test_case "taggr = figure 3(c)" `Quick test_ref_taggr_figure3c;
          Alcotest.test_case "query = figure 3(b)" `Quick test_ref_query_figure3b;
          Alcotest.test_case "join = select(product)" `Quick test_ref_join_vs_product;
          Alcotest.test_case "dup elim" `Quick test_ref_dup_elim;
          Alcotest.test_case "difference" `Quick test_ref_difference;
          Alcotest.test_case "coalesce" `Quick test_ref_coalesce;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_tjoin_intersections;
          QCheck_alcotest.to_alcotest prop_taggr_counts_cover;
        ] );
    ]
