(* Tests for the static plan verifier (Tango_verify.Check) and the
   per-rule soundness gate (Tango_verify.Gate): clean plans verify clean,
   broken plans are diagnosed, mis-ordered inputs to order-sensitive
   middleware algorithms are flagged, and an injected unsound
   transformation rule is caught and attributed by name. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_volcano
open Tango_verify

let col ?q c = Ast.Col (q, c)

let pos_schema =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("PayRate", Value.TFloat); ("T1", Value.TDate); ("T2", Value.TDate) ]

let scan ?alias () = Op.scan ?alias "POSITION" pos_schema

let errors_of ds = List.filter Diag.is_error ds
let errors_in family ds =
  List.filter (fun d -> Diag.is_error d && String.equal d.Diag.family family) ds

let check_family name family ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s: has %s error" name family)
    true
    (errors_in family ds <> [])

(* ---------- logical checks ---------- *)

let test_logical_clean () =
  let op =
    Op.to_mw
      (Op.select (Ast.Binop (Ast.Eq, col ~q:"POSITION" "PosID", Ast.Lit (Value.Int 7)))
         (scan ()))
  in
  let ds = Check.check_logical ~expect_root:Op.Mw op in
  Alcotest.(check int) "no errors" 0 (Diag.count_errors ds)

let test_unresolved_attribute () =
  let op = Op.to_mw (Op.select (col "NoSuchColumn") (scan ())) in
  let ds = Check.check_logical op in
  check_family "unresolved" "schema" ds

let test_bad_transfer_pairing () =
  (* T^M over an already-middleware-resident subtree: built with the raw
     constructors, since the smart constructors refuse it. *)
  let op = Op.To_mw (Op.To_mw (scan ())) in
  let ds = Check.check_logical op in
  check_family "tm-over-mw" "boundary" ds

let test_untranslatable_subtree () =
  (* COALESCE has no SQL rendering, so a DBMS-resident coalesce under a
     T^M must be diagnosed as untranslatable. *)
  let op = Op.To_mw (Op.Coalesce (scan ())) in
  let ds = Check.check_logical op in
  check_family "coalesce-in-db" "boundary" ds

let test_root_location_mismatch () =
  let op = scan () in
  let ds = Check.check_logical ~expect_root:Op.Mw op in
  check_family "db-root" "boundary" ds

(* ---------- physical plan helpers ---------- *)

let pplan ?(own = 1.0) ?(order = []) ?(loc = Op.Mw) algorithm op children =
  let total =
    own +. List.fold_left (fun a c -> a +. c.Physical.total_cost) 0.0 children
  in
  {
    Physical.algorithm;
    op;
    children;
    own_cost = own;
    total_cost = total;
    out_order = order;
    location = loc;
    shards = [];
  }

let leaf ?alias () = pplan ~loc:Op.Db Physical.Table_scan_d (scan ?alias ()) []

let tm ?alias () =
  let child = leaf ?alias () in
  pplan Physical.Transfer_m_algo (Op.to_mw child.Physical.op) [ child ]

let sort_m order child =
  pplan ~order Physical.Sort_m
    (Op.Sort { order; arg = child.Physical.op })
    [ child ]

(* ---------- physical checks: ordering dataflow ---------- *)

let join_pred = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID")

let merge_join left right ~order =
  pplan ~order Physical.Merge_join_m
    (Op.Join { pred = join_pred; left = left.Physical.op; right = right.Physical.op })
    [ left; right ]

let test_merge_join_unordered_flagged () =
  let p = merge_join (tm ~alias:"A" ()) (tm ~alias:"B" ()) ~order:[] in
  let ds = Check.check_physical p in
  check_family "merge join over unsorted inputs" "ordering" ds

let test_merge_join_sorted_clean () =
  let left = sort_m [ Order.asc "A.PosID" ] (tm ~alias:"A" ()) in
  let right = sort_m [ Order.asc "B.PosID" ] (tm ~alias:"B" ()) in
  let p = merge_join left right ~order:[ Order.asc "A.PosID" ] in
  let ds = Check.check_physical p in
  Alcotest.(check int) "no errors" 0 (Diag.count_errors ds)

let test_bogus_order_claim_flagged () =
  (* The node claims an output order the dataflow cannot confirm. *)
  let p = pplan ~order:[ Order.asc "A.PosID" ] Physical.Transfer_m_algo
      (Op.to_mw (scan ~alias:"A" ()))
      [ leaf ~alias:"A" () ]
  in
  let ds = Check.check_physical p in
  check_family "bogus claimed order" "ordering" ds

let taggr ~group_by child ~order =
  pplan ~order Physical.Taggr_m
    (Op.Temporal_aggregate
       { group_by; aggs = [ Op.count_star "CNT" ]; arg = child.Physical.op })
    [ child ]

let test_taggr_misordered_flagged () =
  (* Input sorted on T1 only; TAGGR^M needs (EmpName, T1). *)
  let child = sort_m [ Order.asc "POSITION.T1" ] (tm ()) in
  let group_by = [ "POSITION.EmpName" ] in
  let p =
    taggr ~group_by child
      ~order:(Tango_xxl.Ordering.taggr_output ~group_by)
  in
  let ds = Check.check_physical p in
  check_family "taggr over mis-ordered input" "ordering" ds

let test_taggr_ordered_clean () =
  let group_by = [ "POSITION.EmpName" ] in
  let input_order =
    Tango_xxl.Ordering.taggr_input
      (Op.schema (Op.to_mw (scan ()))) ~group_by
  in
  let child = sort_m input_order (tm ()) in
  let p =
    taggr ~group_by child
      ~order:(Tango_xxl.Ordering.taggr_output ~group_by)
  in
  let ds = Check.check_physical p in
  Alcotest.(check int) "no errors" 0 (Diag.count_errors ds)

let test_dupelim_unsorted_flagged () =
  let child = tm () in
  let p =
    pplan Physical.Dupelim_m (Op.Dup_elim child.Physical.op) [ child ]
  in
  let ds = Check.check_physical p in
  check_family "dupelim over unsorted input" "ordering" ds

let test_dupelim_sorted_clean () =
  let child0 = tm () in
  let order =
    Tango_xxl.Ordering.dup_elim_input (Op.schema child0.Physical.op)
  in
  let child = sort_m order child0 in
  let p =
    pplan ~order Physical.Dupelim_m (Op.Dup_elim child.Physical.op) [ child ]
  in
  let ds = Check.check_physical p in
  Alcotest.(check int) "no errors" 0 (Diag.count_errors ds)

(* ---------- physical checks: estimates ---------- *)

let test_nan_cost_flagged () =
  let child = leaf () in
  let p =
    {
      (pplan Physical.Transfer_m_algo (Op.to_mw child.Physical.op) [ child ]) with
      Physical.own_cost = Float.nan;
      total_cost = Float.nan;
    }
  in
  let ds = Check.check_physical p in
  check_family "NaN cost" "estimates" ds

(* ---------- the tjoin output-order regression ---------- *)

(* A temporal merge join on a *period* attribute must not claim output
   order on that attribute: the output period is the intersection, so the
   input's T1 order does not survive.  (Found by the per-rule gate work;
   previously the planner claimed [asc "A.T1"] here because the base-name
   lookup resolved "A.T1" to the output's unqualified "T1".) *)
let tjoin_out_schema =
  Schema.make
    [ ("A.PosID", Value.TInt); ("B.PosID", Value.TInt);
      ("T1", Value.TDate); ("T2", Value.TDate) ]

let test_tjoin_period_key_claims_no_order () =
  Alcotest.(check bool) "period join key: no order claim" true
    (Tango_xxl.Ordering.merge_join_output ~temporal:true tjoin_out_schema
       ~left_key:"A.T1"
     = []);
  Alcotest.(check bool) "surviving non-period key: order claimed" true
    (Tango_xxl.Ordering.merge_join_output ~temporal:true tjoin_out_schema
       ~left_key:"A.PosID"
     = [ Order.asc "A.PosID" ])

(* ---------- Tango_xxl.Sort satisfies the inferred order ---------- *)

let test_sort_satisfies_inferred_order () =
  let tuples =
    List.init 97 (fun i ->
        Tuple.of_list
          [ Value.Int (i * 37 mod 17); Value.Str (Printf.sprintf "e%d" (i mod 5));
            Value.Float (float_of_int (i * 13 mod 7));
            Value.Date (i * 11 mod 23); Value.Date (100 + (i mod 3)) ])
  in
  let r = Relation.of_list pos_schema tuples in
  let order = Tango_xxl.Ordering.dup_elim_input pos_schema in
  let out =
    Tango_xxl.Cursor.to_relation
      (Tango_xxl.Sort.sort order (Tango_xxl.Cursor.of_relation r))
  in
  let cmp = Order.comparator order pos_schema in
  let ts = Relation.tuples out in
  let ok = ref true in
  Array.iteri (fun i t -> if i > 0 && cmp ts.(i - 1) t > 0 then ok := false) ts;
  Alcotest.(check bool) "output satisfies declared order" true !ok;
  Alcotest.(check int) "cardinality preserved" (List.length tuples)
    (Relation.cardinality out)

(* ---------- the per-rule gate ---------- *)

(* An intentionally unsound rule: "commutes" a join by swapping its
   children without compensating, so the new element's output schema is
   the reverse concatenation — not equivalent to the rest of the class. *)
let bad_commute : Rules.rule =
  {
    Rules.name = "X-bad-commute";
    apply =
      (fun m c el ->
        match el with
        | Memo.N_join { pred; left; right } when left <> right ->
            Memo.add_to_class m c (Memo.N_join { pred; left = right; right = left })
        | _ -> false);
  }

let join_op () =
  Op.join join_pred (scan ~alias:"A" ()) (scan ~alias:"B" ())

let test_gate_catches_injected_rule () =
  let m = Memo.create () in
  let _c = Memo.insert_op m (join_op ()) in
  let g = Gate.create () in
  Rules.saturate ~rules:(Rules.all @ [ bad_commute ]) ~observer:(Gate.observer g) m;
  let ds = Gate.diagnostics g in
  Alcotest.(check bool) "gate fired" true (Gate.checked g > 0);
  Alcotest.(check bool) "gate reports errors" true (Diag.count_errors ds > 0);
  let attributed =
    List.exists
      (fun d -> Diag.is_error d && d.Diag.rule = Some "X-bad-commute")
      ds
  in
  Alcotest.(check bool) "attributed to the injected rule" true attributed;
  (* No sound rule gets blamed. *)
  List.iter
    (fun d ->
      match d.Diag.rule with
      | Some r ->
          Alcotest.(check string) "only the injected rule is blamed"
            "X-bad-commute" r
      | None -> ())
    (errors_of ds)

let test_gate_clean_on_sound_rules () =
  let m = Memo.create () in
  let _c = Memo.insert_op m (Op.to_mw (join_op ())) in
  let g = Gate.create () in
  Rules.saturate ~observer:(Gate.observer g) m;
  Alcotest.(check bool) "gate examined rule applications" true (Gate.checked g > 0);
  Alcotest.(check int) "no diagnostics from the stock rules" 0
    (List.length (Gate.diagnostics g))

(* ---------- the full pipeline under the per-rule gate ---------- *)

(* Every workload query must optimize cleanly with verification at its
   strictest setting (this is the rule-soundness sweep of the whole stock
   rule set over realistic plans). *)
let test_workload_verifies_clean () =
  let db = Tango_dbms.Database.create () in
  Tango_workload.Uis.load ~scale:0.002 db;
  let config =
    Tango_core.Middleware.Config.(
      default |> with_verify_plans Verify_per_rule)
  in
  let mw = Tango_core.Middleware.connect ~config db in
  List.iter
    (fun (name, sql) ->
      let initial =
        Tango_tsql.Compile.compile
          ~lookup:(Tango_core.Middleware.schema_lookup mw) sql
      in
      let _result = Tango_core.Middleware.optimize mw initial in
      let ds = Tango_core.Middleware.last_diagnostics mw in
      Alcotest.(check int)
        (name ^ ": no verification errors")
        0 (Diag.count_errors ds))
    Tango_workload.Queries.workload

(* ---------- diagnostics rendering ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_diag_json () =
  let d =
    Diag.v ~hint:"insert a SORT" ~rule:"T5" Diag.Error "ordering"
      ~path:"/T^M/JOIN" "input not sorted on \"A.PosID\""
  in
  let j = Diag.to_json d in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains ~needle j))
    [ "\"severity\":\"error\""; "\"family\":\"ordering\""; "\"rule\":\"T5\"";
      "\\\"A.PosID\\\"" ]

let () =
  Alcotest.run "tango_verify"
    [
      ( "logical",
        [
          Alcotest.test_case "clean plan" `Quick test_logical_clean;
          Alcotest.test_case "unresolved attribute" `Quick test_unresolved_attribute;
          Alcotest.test_case "bad transfer pairing" `Quick test_bad_transfer_pairing;
          Alcotest.test_case "untranslatable subtree" `Quick test_untranslatable_subtree;
          Alcotest.test_case "root location" `Quick test_root_location_mismatch;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "merge join unordered" `Quick test_merge_join_unordered_flagged;
          Alcotest.test_case "merge join sorted" `Quick test_merge_join_sorted_clean;
          Alcotest.test_case "bogus order claim" `Quick test_bogus_order_claim_flagged;
          Alcotest.test_case "taggr mis-ordered" `Quick test_taggr_misordered_flagged;
          Alcotest.test_case "taggr ordered" `Quick test_taggr_ordered_clean;
          Alcotest.test_case "dupelim unsorted" `Quick test_dupelim_unsorted_flagged;
          Alcotest.test_case "dupelim sorted" `Quick test_dupelim_sorted_clean;
          Alcotest.test_case "tjoin period-key order regression" `Quick
            test_tjoin_period_key_claims_no_order;
          Alcotest.test_case "xxl sort satisfies order" `Quick
            test_sort_satisfies_inferred_order;
        ] );
      ( "estimates",
        [ Alcotest.test_case "NaN cost" `Quick test_nan_cost_flagged ] );
      ( "gate",
        [
          Alcotest.test_case "injected unsound rule" `Quick test_gate_catches_injected_rule;
          Alcotest.test_case "sound rules clean" `Quick test_gate_clean_on_sound_rules;
          Alcotest.test_case "workload clean under per-rule gate" `Quick
            test_workload_verifies_clean;
        ] );
      ( "diagnostics",
        [ Alcotest.test_case "json rendering" `Quick test_diag_json ] );
    ]
