(* Tests for the cost model: factors, the Figure-6 formulas, calibration
   against a live substrate, and factor adoption. *)

open Tango_rel
open Tango_sql
open Tango_cost

let f = Factors.default ()

(* Every factor by name, read off the public JSON export. *)
let factor_assoc f =
  match Factors.to_json f with
  | Tango_obs.Json.Obj kv ->
      List.map
        (function
          | n, Tango_obs.Json.Float v -> (n, v)
          | n, _ -> Alcotest.fail ("non-float factor " ^ n))
        kv
  | _ -> Alcotest.fail "factors JSON is not an object"

let test_formula_linearity () =
  (* transfers and filters are linear in size *)
  Alcotest.(check (float 1e-9)) "transfer_m doubles"
    (2.0 *. Formulas.transfer_m f ~size:1000.0)
    (Formulas.transfer_m f ~size:2000.0);
  Alcotest.(check (float 1e-9)) "transfer_d doubles"
    (2.0 *. Formulas.transfer_d f ~size:1000.0)
    (Formulas.transfer_d f ~size:2000.0)

let test_predicate_coefficient () =
  let col c = Ast.Col (None, c) in
  let cmp a = Ast.Binop (Ast.Lt, col a, Ast.Lit (Value.Int 1)) in
  Alcotest.(check (float 0.001)) "single term" 1.0
    (Formulas.predicate_coefficient (cmp "A"));
  Alcotest.(check (float 0.001)) "conjunction" 3.0
    (Formulas.predicate_coefficient
       (Ast.Binop (Ast.And, cmp "A", Ast.Binop (Ast.Or, cmp "B", cmp "C"))));
  (* f(P) scales FILTER^M cost *)
  let c1 = Formulas.filter_m f ~pred:(cmp "A") ~size:1000.0 in
  let c3 =
    Formulas.filter_m f
      ~pred:(Ast.Binop (Ast.And, cmp "A", Ast.Binop (Ast.And, cmp "B", cmp "C")))
      ~size:1000.0
  in
  Alcotest.(check (float 1e-6)) "3 terms cost 3x" (3.0 *. c1) c3

let test_sort_formula_superlinear () =
  (* sorting is size * levels; levels grow with size *)
  let small = Formulas.sort_m f ~size:10_000.0 in
  let big = Formulas.sort_m f ~size:1_000_000.0 in
  Alcotest.(check bool) "more than 100x for 100x size" true (big > 100.0 *. small)

let test_taggr_formula_includes_sort () =
  let plain = (f.Factors.p_taggm1 *. 10_000.0) +. (f.Factors.p_taggm2 *. 5_000.0) in
  let full = Formulas.taggr_m f ~in_size:10_000.0 ~out_size:5_000.0 in
  Alcotest.(check (float 1e-6)) "internal sort added"
    (Formulas.sort_m f ~size:10_000.0) (full -. plain)

let test_db_freebies () =
  Alcotest.(check (float 0.0)) "DBMS selection free" 0.0 (Formulas.select_d ~size:1e6);
  Alcotest.(check (float 0.0)) "DBMS projection free" 0.0 (Formulas.project_d ~size:1e6)

let test_index_join_cheaper () =
  (* with a large inner and small output, the indexed formula must win *)
  let generic = Formulas.join_d f ~left_size:1e4 ~right_size:1e7 ~out_size:2e4 in
  let indexed = Formulas.index_join_d f ~outer_size:1e4 ~out_size:2e4 in
  Alcotest.(check bool) "indexed wins on big inner" true (indexed < generic)

(* Adopting a calibrated set must carry every factor into the session
   globals: a set that differs from the defaults in every field leaves
   the session's factors equal to it. *)
let test_adopt_every_factor () =
  let mw = Tango_core.Middleware.connect (Tango_dbms.Database.create ()) in
  let calibrated = Factors.default () in
  List.iter
    (fun (name, v) -> ignore (Factors.set_by_name calibrated name (v *. 3.0)))
    (factor_assoc calibrated);
  Tango_core.Middleware.adopt_factors mw calibrated;
  Alcotest.(check (list (pair string (float 0.0)))) "every factor adopted"
    (factor_assoc calibrated)
    (factor_assoc (Tango_core.Middleware.factors mw))

let test_copy_independent () =
  let a = Factors.default () in
  let b = Factors.copy a in
  b.Factors.p_tm <- 99.0;
  Alcotest.(check bool) "copy is independent" true (a.Factors.p_tm <> 99.0)

(* --- calibration against the live substrate --- *)

let calibrated =
  lazy
    (let db = Tango_dbms.Database.create () in
     (* default round-trip latency: transfers must cost real work *)
     let backend = Tango_dbms.Backend.in_process db in
     Calibrate.run ~sizes:{ Calibrate.small = 300; large = 1200 } backend)

let test_calibration_all_positive () =
  let f = Lazy.force calibrated in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " > 0") true (v > 0.0))
    [
      ("p_tm", f.Factors.p_tm); ("p_td", f.Factors.p_td);
      ("p_sem", f.Factors.p_sem); ("p_pm", f.Factors.p_pm);
      ("p_sortm", f.Factors.p_sortm); ("p_mjm1", f.Factors.p_mjm1);
      ("p_tjm1", f.Factors.p_tjm1); ("p_taggm1", f.Factors.p_taggm1);
      ("p_scan", f.Factors.p_scan); ("p_sortd", f.Factors.p_sortd);
      ("p_joind1", f.Factors.p_joind1); ("p_taggd1", f.Factors.p_taggd1);
    ]

let test_calibration_asymmetries () =
  let f = Lazy.force calibrated in
  (* The paper's central asymmetry: DBMS temporal aggregation costs far
     more per byte than the middleware algorithm. *)
  Alcotest.(check bool) "taggd >> taggm" true
    (f.Factors.p_taggd1 > 10.0 *. f.Factors.p_taggm1);
  (* Transfers cost more per byte than local filtering. *)
  Alcotest.(check bool) "transfer > filter" true (f.Factors.p_tm > f.Factors.p_sem)

let test_calibration_cleans_up () =
  let db = Tango_dbms.Database.create () in
  let backend = Tango_dbms.Backend.in_process ~roundtrip_spin:0 db in
  ignore (Calibrate.run ~sizes:{ Calibrate.small = 200; large = 500 } backend);
  Alcotest.(check (list string)) "no leftover tables" []
    (Tango_dbms.Catalog.table_names (Tango_dbms.Database.catalog db))

let () =
  Alcotest.run "tango_cost"
    [
      ( "formulas",
        [
          Alcotest.test_case "linearity" `Quick test_formula_linearity;
          Alcotest.test_case "predicate coefficient" `Quick test_predicate_coefficient;
          Alcotest.test_case "sort superlinear" `Quick test_sort_formula_superlinear;
          Alcotest.test_case "taggr includes internal sort" `Quick test_taggr_formula_includes_sort;
          Alcotest.test_case "DBMS select/project free" `Quick test_db_freebies;
          Alcotest.test_case "index join cheaper" `Quick test_index_join_cheaper;
        ] );
      ( "factors",
        [
          Alcotest.test_case "adopt every factor" `Quick test_adopt_every_factor;
          Alcotest.test_case "copy" `Quick test_copy_independent;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "all positive" `Quick test_calibration_all_positive;
          Alcotest.test_case "asymmetries" `Quick test_calibration_asymmetries;
          Alcotest.test_case "cleans up" `Quick test_calibration_cleans_up;
        ] );
    ]
