(* Tests for the middleware execution engine: every XXL algorithm is checked
   against the reference semantics of the algebra. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_xxl

let col ?q c = Ast.Col (q, c)

let schema_kab =
  Schema.make [ ("K", Value.TInt); ("V", Value.TFloat);
                ("T1", Value.TDate); ("T2", Value.TDate) ]

let rel_of rows =
  Relation.of_list schema_kab
    (List.map
       (fun (k, v, a, b) ->
         Tuple.of_list [ Value.Int k; Value.Float v; Value.Date a; Value.Date b ])
       rows)

let sample =
  rel_of
    [ (1, 10.0, 2, 20); (1, 20.0, 5, 25); (2, 5.0, 5, 10); (2, 7.5, 1, 6);
      (3, 1.0, 4, 8) ]

let test_cursor_of_relation () =
  let c = Cursor.of_relation sample in
  let r = Cursor.to_relation c in
  Alcotest.(check bool) "roundtrip" true (Relation.equal_list sample r);
  (* init resets *)
  let r2 = Cursor.to_relation c in
  Alcotest.(check bool) "re-init" true (Relation.equal_list sample r2)

let test_filter () =
  let pred = Ast.Binop (Ast.Eq, col "K", Ast.Lit (Value.Int 1)) in
  let out = Cursor.to_relation (Basic_ops.filter pred (Cursor.of_relation sample)) in
  Alcotest.(check int) "two" 2 (Relation.cardinality out)

let test_project () =
  let out =
    Cursor.to_relation
      (Basic_ops.project
         [ (col "K", "K"); (Ast.Binop (Ast.Mul, col "V", Ast.Lit (Value.Int 2)), "V2") ]
         (Cursor.of_relation sample))
  in
  Alcotest.(check (list string)) "schema" [ "K"; "V2" ]
    (Schema.names (Relation.schema out));
  Alcotest.(check (float 0.001)) "computed" 20.0
    (Value.to_float (Relation.tuples out).(0).(1))

let test_sort_matches_relation_sort () =
  let order = [ Order.asc "K"; Order.desc "T1" ] in
  let out = Cursor.to_relation (Sort.sort order (Cursor.of_relation sample)) in
  let expected = Relation.sort order sample in
  Alcotest.(check bool) "sorted equal" true (Relation.equal_list expected out)

let test_sort_multi_run () =
  (* Force many tiny runs to exercise the external merge. *)
  let rows = List.init 1000 (fun i -> ((i * 37) mod 1000, 0.0, 1, 2)) in
  let r = rel_of rows in
  let out =
    Cursor.to_relation (Sort.sort ~run_size:16 [ Order.asc "K" ] (Cursor.of_relation r))
  in
  let expected = Relation.sort [ Order.asc "K" ] r in
  Alcotest.(check bool) "external sort correct" true
    (Relation.equal_list expected out)

let test_sort_stability () =
  let schema = Schema.make [ ("K", Value.TInt); ("I", Value.TInt) ] in
  let r =
    Relation.of_list schema
      (List.init 100 (fun i -> Tuple.of_list [ Value.Int (i mod 3); Value.Int i ]))
  in
  let out = Cursor.to_relation (Sort.sort ~run_size:8 [ Order.asc "K" ] (Cursor.of_relation r)) in
  (* within each key, I must stay increasing *)
  let last = Hashtbl.create 3 in
  let ok = ref true in
  Relation.iter
    (fun t ->
      let k = Value.to_int t.(0) and i = Value.to_int t.(1) in
      (match Hashtbl.find_opt last k with
      | Some prev when prev > i -> ok := false
      | _ -> ());
      Hashtbl.replace last k i)
    out;
  Alcotest.(check bool) "stable across runs" true !ok

(* ---- joins ---- *)

let lookup_of pairs name =
  match List.assoc_opt name pairs with
  | Some r -> r
  | None -> failwith ("unknown " ^ name)

let sorted_cursor keys r = Sort.sort (Order.of_attrs keys) (Cursor.of_relation r)

let test_merge_join_vs_reference () =
  let l = rel_of [ (1, 1.0, 1, 2); (2, 2.0, 1, 2); (2, 3.0, 1, 2); (4, 1.0, 1, 2) ] in
  let r = rel_of [ (2, 9.0, 1, 2); (2, 8.0, 1, 2); (3, 7.0, 1, 2); (4, 1.0, 1, 2) ] in
  let pred = Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K") in
  let ref_out =
    Reference.eval
      (lookup_of [ ("L", l); ("R", r) ])
      (Op.join pred
         (Op.scan ~alias:"A" "L" schema_kab)
         (Op.scan ~alias:"B" "R" schema_kab))
  in
  let qual alias rel =
    Relation.make (Schema.qualify alias schema_kab) (Relation.tuples rel)
  in
  let out =
    Cursor.to_relation
      (Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
         (sorted_cursor [ "A.K" ] (qual "A" l))
         (sorted_cursor [ "B.K" ] (qual "B" r)))
  in
  Alcotest.(check int) "5 matches" 5 (Relation.cardinality out);
  Alcotest.(check bool) "matches reference" true (Relation.equal_multiset ref_out out)

let test_merge_join_residual_pred () =
  let l = rel_of [ (1, 1.0, 1, 2); (1, 5.0, 1, 2) ] in
  let r = rel_of [ (1, 2.0, 1, 2) ] in
  let pred =
    Ast.Binop
      (Ast.And,
       Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K"),
       Ast.Binop (Ast.Lt, col ~q:"A" "V", col ~q:"B" "V"))
  in
  let qual alias rel = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples rel) in
  let out =
    Cursor.to_relation
      (Joins.merge_join ~pred ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
         (sorted_cursor [ "A.K" ] (qual "A" l))
         (sorted_cursor [ "B.K" ] (qual "B" r)))
  in
  Alcotest.(check int) "only V<2" 1 (Relation.cardinality out)

let test_tjoin_vs_reference () =
  let pred = Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K") in
  let ref_out =
    Reference.eval
      (lookup_of [ ("L", sample); ("R", sample) ])
      (Op.temporal_join pred
         (Op.scan ~alias:"A" "L" schema_kab)
         (Op.scan ~alias:"B" "R" schema_kab))
  in
  let qual alias = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples sample) in
  let out =
    Cursor.to_relation
      (Joins.temporal_merge_join ~pred:(Ast.Lit (Value.Bool true))
         ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
         (sorted_cursor [ "A.K" ] (qual "A"))
         (sorted_cursor [ "B.K" ] (qual "B")))
  in
  Alcotest.(check bool) "tjoin matches reference" true
    (Relation.equal_multiset ref_out out)

(* A NULL key equals nothing, not even another NULL: NULL-NULL and
   NULL-value pairs must not join, whatever the residual predicate. *)
let test_null_keys_never_match () =
  let rel rows =
    Relation.of_list schema_kab
      (List.map
         (fun (k, v, a, b) ->
           Tuple.of_list
             [ (match k with Some k -> Value.Int k | None -> Value.Null);
               Value.Float v; Value.Date a; Value.Date b ])
         rows)
  in
  let l =
    rel [ (None, 1.0, 1, 9); (None, 2.0, 2, 8); (Some 1, 3.0, 1, 9); (Some 2, 4.0, 3, 7) ]
  in
  let r =
    rel [ (None, 5.0, 1, 9); (Some 1, 6.0, 2, 5); (None, 7.0, 4, 6); (Some 3, 8.0, 1, 9) ]
  in
  let pred = Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K") in
  let qual alias rel = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples rel) in
  let reference mk =
    Reference.eval
      (lookup_of [ ("L", l); ("R", r) ])
      (mk pred (Op.scan ~alias:"A" "L" schema_kab) (Op.scan ~alias:"B" "R" schema_kab))
  in
  let inputs () =
    (sorted_cursor [ "A.K" ] (qual "A" l), sorted_cursor [ "B.K" ] (qual "B" r))
  in
  let ml, mr = inputs () in
  let merged =
    Cursor.to_relation (Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ] ml mr)
  in
  Alcotest.(check int) "merge join: only the 1-1 pair" 1 (Relation.cardinality merged);
  Alcotest.(check bool) "merge join matches reference" true
    (Relation.equal_multiset (reference Op.join) merged);
  let tl, tr = inputs () in
  let tjoined =
    Cursor.to_relation
      (Joins.temporal_merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ] tl tr)
  in
  Alcotest.(check int) "tjoin: only the 1-1 pair" 1 (Relation.cardinality tjoined);
  Alcotest.(check bool) "tjoin matches reference" true
    (Relation.equal_multiset (reference Op.temporal_join) tjoined)

(* ---- temporal aggregation ---- *)

let taggr_via_xxl ~group_by ~aggs r =
  let sorted = Sort.sort (Order.of_attrs (group_by @ [ "T1" ])) (Cursor.of_relation r) in
  Cursor.to_relation (Taggr.taggr ~group_by ~aggs sorted)

let taggr_via_reference ~group_by ~aggs r =
  Reference.eval
    (lookup_of [ ("R", r) ])
    (Op.temporal_aggregate group_by aggs
       (Op.scan "R" (Schema.unqualify (Relation.schema r))))

let test_taggr_figure3c () =
  let pos_schema =
    Schema.make
      [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
        ("T1", Value.TDate); ("T2", Value.TDate) ]
  in
  let position =
    Relation.of_list pos_schema
      (List.map
         (fun (p, n, a, b) ->
           Tuple.of_list [ Value.Int p; Value.Str n; Value.Date a; Value.Date b ])
         [ (1, "Tom", 2, 20); (1, "Jane", 5, 25); (2, "Tom", 5, 10) ])
  in
  let out =
    taggr_via_xxl ~group_by:[ "PosID" ] ~aggs:[ Op.count_star "CNT" ] position
  in
  let rows =
    Array.to_list
      (Array.map
         (fun t -> List.map Value.to_int [ t.(0); t.(1); t.(2); t.(3) ])
         (Relation.tuples out))
  in
  Alcotest.(check (list (list int))) "figure 3(c)"
    [ [ 1; 2; 5; 1 ]; [ 1; 5; 20; 2 ]; [ 1; 20; 25; 1 ]; [ 2; 5; 10; 1 ] ]
    rows

let test_taggr_all_aggregates () =
  let aggs =
    [ Op.count_star "CNT"; Op.agg Ast.Sum "V" "S"; Op.agg Ast.Avg "V" "A";
      Op.agg Ast.Min "V" "MN"; Op.agg Ast.Max "V" "MX" ]
  in
  let xxl = taggr_via_xxl ~group_by:[ "K" ] ~aggs sample in
  let ref_ = taggr_via_reference ~group_by:[ "K" ] ~aggs sample in
  Alcotest.(check bool) "all aggregates match reference" true
    (Relation.equal_list ref_ xxl)

let test_taggr_no_grouping () =
  let xxl = taggr_via_xxl ~group_by:[] ~aggs:[ Op.count_star "CNT" ] sample in
  let ref_ = taggr_via_reference ~group_by:[] ~aggs:[ Op.count_star "CNT" ] sample in
  Alcotest.(check bool) "global taggr" true (Relation.equal_list ref_ xxl)

let test_taggr_output_order () =
  let out = taggr_via_xxl ~group_by:[ "K" ] ~aggs:[ Op.count_star "C" ] sample in
  let s = Relation.schema out in
  let cmp = Order.comparator [ Order.asc "K"; Order.asc "T1" ] s in
  let sorted = ref true in
  let ts = Relation.tuples out in
  for i = 1 to Array.length ts - 1 do
    if cmp ts.(i - 1) ts.(i) > 0 then sorted := false
  done;
  Alcotest.(check bool) "ordered by (K, T1)" true !sorted

(* property: TAGGR^M = reference on random data, all aggregate functions *)
let row_gen =
  QCheck.Gen.(
    map
      (fun (k, v, t1, d) -> (k, float_of_int v, t1, t1 + 1 + d))
      (quad (int_range 1 4) (int_range 0 20) (int_range 0 40) (int_range 0 15)))

let prop_taggr_matches_reference =
  QCheck.Test.make ~name:"TAGGR^M = reference semantics" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 25) (QCheck.make row_gen))
    (fun rows ->
      let r = rel_of rows in
      let aggs =
        [ Op.count_star "CNT"; Op.agg Ast.Sum "V" "S";
          Op.agg Ast.Min "V" "MN"; Op.agg Ast.Max "V" "MX" ]
      in
      let xxl = taggr_via_xxl ~group_by:[ "K" ] ~aggs r in
      let ref_ = taggr_via_reference ~group_by:[ "K" ] ~aggs r in
      Relation.equal_list ref_ xxl)

let prop_merge_join_matches_reference =
  QCheck.Test.make ~name:"MERGEJOIN^M = reference join" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 15) (QCheck.make row_gen))
        (list_of_size (QCheck.Gen.int_bound 15) (QCheck.make row_gen)))
    (fun (lrows, rrows) ->
      let l = rel_of lrows and r = rel_of rrows in
      let pred = Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K") in
      let ref_out =
        Reference.eval
          (lookup_of [ ("L", l); ("R", r) ])
          (Op.join pred
             (Op.scan ~alias:"A" "L" schema_kab)
             (Op.scan ~alias:"B" "R" schema_kab))
      in
      let qual alias rel = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples rel) in
      let out =
        Cursor.to_relation
          (Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
             (sorted_cursor [ "A.K" ] (qual "A" l))
             (sorted_cursor [ "B.K" ] (qual "B" r)))
      in
      Relation.equal_multiset ref_out out)

let prop_tjoin_matches_reference =
  QCheck.Test.make ~name:"TJOIN^M = reference temporal join" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 12) (QCheck.make row_gen))
        (list_of_size (QCheck.Gen.int_bound 12) (QCheck.make row_gen)))
    (fun (lrows, rrows) ->
      let l = rel_of lrows and r = rel_of rrows in
      let pred = Ast.Binop (Ast.Eq, col ~q:"A" "K", col ~q:"B" "K") in
      let ref_out =
        Reference.eval
          (lookup_of [ ("L", l); ("R", r) ])
          (Op.temporal_join pred
             (Op.scan ~alias:"A" "L" schema_kab)
             (Op.scan ~alias:"B" "R" schema_kab))
      in
      let qual alias rel = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples rel) in
      let out =
        Cursor.to_relation
          (Joins.temporal_merge_join ~pred:(Ast.Lit (Value.Bool true))
             ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
             (sorted_cursor [ "A.K" ] (qual "A" l))
             (sorted_cursor [ "B.K" ] (qual "B" r)))
      in
      Relation.equal_multiset ref_out out)

(* ---- dup elim / coalesce / difference ---- *)

let test_dup_elim () =
  let r = rel_of [ (1, 1.0, 1, 2); (1, 1.0, 1, 2); (2, 1.0, 1, 2) ] in
  let out =
    Cursor.to_relation
      (Dup_elim.dup_elim
         (Sort.sort (Order.of_attrs [ "K"; "V"; "T1"; "T2" ]) (Cursor.of_relation r)))
  in
  Alcotest.(check int) "two distinct" 2 (Relation.cardinality out)

let test_difference () =
  let l = rel_of [ (1, 1.0, 1, 2); (1, 1.0, 1, 2); (2, 1.0, 1, 2) ] in
  let r = rel_of [ (1, 1.0, 1, 2) ] in
  let out =
    Cursor.to_relation (Dup_elim.difference (Cursor.of_relation l) (Cursor.of_relation r))
  in
  (* multiset semantics: one occurrence removed *)
  Alcotest.(check int) "one removed" 2 (Relation.cardinality out)

let test_coalesce_vs_reference () =
  let r =
    rel_of [ (1, 1.0, 1, 5); (1, 1.0, 5, 9); (1, 1.0, 20, 25); (2, 1.0, 3, 6) ]
  in
  let ref_out =
    Reference.eval
      (lookup_of [ ("R", r) ])
      (Op.Coalesce (Op.scan "R" (Schema.unqualify (Relation.schema r))))
  in
  let out =
    Cursor.to_relation
      (Dup_elim.coalesce
         (Sort.sort (Order.of_attrs [ "K"; "V"; "T1" ]) (Cursor.of_relation r)))
  in
  Alcotest.(check bool) "coalesce matches" true
    (Relation.equal_multiset ref_out out)

(* ---- batch boundaries ---- *)

(* A source emitting one tuple per batch, so a batch boundary falls
   between every two tuples. *)
let singletons (r : Relation.t) : Cursor.t =
  let ts = Relation.tuples r in
  let pos = ref 0 in
  Cursor.make ~schema:(Relation.schema r)
    ~init:(fun () -> pos := 0)
    ~next_batch:(fun () ->
      if !pos >= Array.length ts then None
      else begin
        let t = ts.(!pos) in
        incr pos;
        Some [| t |]
      end)

(* Every operator must yield the identical relation (same order) whether
   its sources emit one tuple per batch or the whole relation as one. *)
let check_differential name (mk : (Relation.t -> Cursor.t) -> Cursor.t) =
  Alcotest.(check bool) (name ^ ": singleton batches = whole batch") true
    (Relation.equal_list
       (Cursor.to_relation (mk Cursor.of_relation))
       (Cursor.to_relation (mk singletons)))

(* Value-equivalent runs whose periods meet or overlap, so coalesced
   periods span several input tuples. *)
let spans =
  rel_of
    [ (1, 1.0, 1, 5); (1, 1.0, 5, 9); (1, 1.0, 7, 12); (1, 1.0, 20, 25);
      (1, 2.0, 2, 4); (2, 1.0, 3, 6); (2, 1.0, 6, 8); (2, 1.0, 6, 8) ]

let test_batch_differential () =
  let qual alias r = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples r) in
  let sorted keys r = Relation.sort (Order.of_attrs keys) r in
  let big = rel_of (List.init 600 (fun i -> ((i * 37) mod 7, 0.0, i mod 50, 60))) in
  check_differential "filter" (fun src ->
      Basic_ops.filter (Ast.Binop (Ast.Gt, col "V", Ast.Lit (Value.Float 2.0))) (src sample));
  check_differential "project" (fun src ->
      Basic_ops.project
        [ (col "K", "K"); (Ast.Binop (Ast.Mul, col "V", Ast.Lit (Value.Int 2)), "V2") ]
        (src sample));
  check_differential "sort" (fun src ->
      Sort.sort ~run_size:2 [ Order.asc "K"; Order.desc "T1" ] (src big));
  check_differential "taggr" (fun src ->
      Taggr.taggr ~group_by:[ "K" ] ~aggs:[ Op.count_star "CNT" ]
        (src (sorted [ "K"; "T1" ] big)));
  check_differential "merge_join" (fun src ->
      Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" spans)))
        (src (sorted [ "B.K" ] (qual "B" sample))));
  check_differential "tjoin" (fun src ->
      Joins.temporal_merge_join ~pred:(Ast.Lit (Value.Bool true))
        ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" sample)))
        (src (sorted [ "B.K" ] (qual "B" spans))));
  check_differential "dup_elim" (fun src ->
      Dup_elim.dup_elim (src (sorted [ "K"; "V"; "T1"; "T2" ] spans)));
  check_differential "coalesce" (fun src ->
      Dup_elim.coalesce (src (sorted [ "K"; "V"; "T1" ] spans)));
  check_differential "difference" (fun src ->
      Dup_elim.difference (src spans) (src (rel_of [ (2, 1.0, 6, 8); (1, 1.0, 5, 9) ])));
  check_differential "gather concat" (fun src ->
      Gather.merge ~schema:schema_kab [ src sample; src spans ]);
  check_differential "gather k-way" (fun src ->
      let order = Order.of_attrs [ "K"; "T1" ] in
      Gather.merge ~order ~schema:schema_kab
        [ src (Relation.sort order sample); src (Relation.sort order spans) ])

(* Every batch is non-empty and at most [Cursor.default_batch_size]
   tuples, and every batch but the last is full, whatever the batching
   of the operator's sources. *)
let test_batch_discipline () =
  let size = Cursor.default_batch_size in
  let qual alias r = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples r) in
  let sorted keys r = Relation.sort (Order.of_attrs keys) r in
  let big = rel_of (List.init 600 (fun i -> ((i * 37) mod 7, 0.0, i mod 50, 60))) in
  (* two partners for every key of [big], overlapping every period *)
  let partners = rel_of (List.init 14 (fun i -> (i mod 7, float_of_int i, i, 100))) in
  let check name (mk : (Relation.t -> Cursor.t) -> Cursor.t) =
    List.iter
      (fun (src_name, src) ->
        let c = mk src in
        Cursor.init c;
        let rec pull acc =
          match Cursor.next_batch c with
          | None -> List.rev acc
          | Some b -> pull (Array.length b :: acc)
        in
        let lens = pull [] in
        let name = Printf.sprintf "%s over %s" name src_name in
        Alcotest.(check bool) (name ^ ": more than one batch") true
          (List.length lens > 1);
        List.iteri
          (fun i len ->
            Alcotest.(check bool) (name ^ ": batch within bounds") true
              (len > 0 && len <= size);
            if i < List.length lens - 1 then
              Alcotest.(check int) (name ^ ": batch before the last is full") size len)
          lens)
      [ ("whole batch", Cursor.of_relation); ("singletons", singletons) ]
  in
  check "sort, one run" (fun src ->
      Sort.sort [ Order.asc "K"; Order.desc "T1" ] (src big));
  check "sort, runs of 2" (fun src ->
      Sort.sort ~run_size:2 [ Order.asc "K"; Order.desc "T1" ] (src big));
  check "taggr" (fun src ->
      Taggr.taggr ~group_by:[ "K" ] ~aggs:[ Op.count_star "CNT" ]
        (src (sorted [ "K"; "T1" ] big)));
  check "merge_join" (fun src ->
      Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" big)))
        (src (sorted [ "B.K" ] (qual "B" partners))));
  check "tjoin" (fun src ->
      Joins.temporal_merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" big)))
        (src (sorted [ "B.K" ] (qual "B" partners))))

(* A singleton source whose first run fails (raises [Exit]) before its
   tuple [after]; later runs read everything. *)
let failing_once after (r : Relation.t) : Cursor.t =
  let ts = Relation.tuples r in
  let pos = ref 0 and failed = ref false in
  Cursor.make ~schema:(Relation.schema r)
    ~init:(fun () -> pos := 0)
    ~next_batch:(fun () ->
      if !pos >= Array.length ts then None
      else if !pos = after && not !failed then begin
        failed := true;
        raise Exit
      end
      else begin
        let t = ts.(!pos) in
        incr pos;
        Some [| t |]
      end)

(* A pull cut short by a failing input leaves nothing behind: after a
   re-init the operator yields exactly what a clean run does. *)
let test_reinit_after_failed_pull () =
  let qual alias r = Relation.make (Schema.qualify alias schema_kab) (Relation.tuples r) in
  let sorted keys r = Relation.sort (Order.of_attrs keys) r in
  let big = rel_of (List.init 600 (fun i -> ((i * 37) mod 7, 0.0, i mod 50, 60))) in
  let partners = rel_of (List.init 14 (fun i -> (i mod 7, float_of_int i, i, 100))) in
  let check name (mk : (Relation.t -> Cursor.t) -> Cursor.t) =
    let c = mk (failing_once 300) in
    Cursor.init c;
    let rec pull () = match Cursor.next_batch c with None -> () | Some _ -> pull () in
    (match pull () with
    | () -> Alcotest.failf "%s: the failing input did not fail" name
    | exception Exit -> ());
    Alcotest.(check bool) (name ^ ": re-run = clean run") true
      (Relation.equal_list (Cursor.to_relation c)
         (Cursor.to_relation (mk Cursor.of_relation)))
  in
  check "taggr" (fun src ->
      Taggr.taggr ~group_by:[ "K" ] ~aggs:[ Op.count_star "CNT" ]
        (src (sorted [ "K"; "T1" ] big)));
  check "merge_join" (fun src ->
      Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" big)))
        (src (sorted [ "B.K" ] (qual "B" partners))));
  check "tjoin" (fun src ->
      Joins.temporal_merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
        (src (sorted [ "A.K" ] (qual "A" big)))
        (src (sorted [ "B.K" ] (qual "B" partners))))

(* Reading tuple by tuple must see exactly the tuples of the batches. *)
let test_reader_matches_batches () =
  let big = rel_of (List.init 600 (fun i -> ((i * 37) mod 600, 0.0, 1, 2))) in
  let mk src = Sort.sort ~run_size:64 [ Order.asc "K" ] (src big) in
  List.iter
    (fun src ->
      let c = mk src in
      Cursor.init c;
      let rd = Cursor.reader c in
      let rec go acc =
        match Cursor.read rd with Some t -> go (t :: acc) | None -> List.rev acc
      in
      let read = Relation.of_list schema_kab (go []) in
      Alcotest.(check bool) "reader = batches" true
        (Relation.equal_list (Cursor.to_relation (mk src)) read))
    [ Cursor.of_relation; singletons ]

(* property: singleton batches = whole batch through filter, sort and
   taggr on random relations *)
let prop_singletons_equal_whole =
  QCheck.Test.make ~name:"singleton batches = whole batch" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 600) (QCheck.make row_gen))
    (fun rows ->
      let r = rel_of rows in
      let pred = Ast.Binop (Ast.Gt, col "T1", Ast.Lit (Value.Date 5)) in
      let sorting src =
        Sort.sort ~run_size:16 [ Order.asc "K"; Order.asc "T1" ]
          (Basic_ops.filter pred (src r))
      in
      let aggregating src =
        Taggr.taggr ~group_by:[ "K" ] ~aggs:[ Op.count_star "CNT" ]
          (Basic_ops.filter pred (src (Relation.sort (Order.of_attrs [ "K"; "T1" ]) r)))
      in
      List.for_all
        (fun mk ->
          Relation.equal_list
            (Cursor.to_relation (mk Cursor.of_relation))
            (Cursor.to_relation (mk singletons)))
        [ sorting; aggregating ])

(* ---- transfers ---- *)

let test_transfer_m () =
  let db = Tango_dbms.Database.create () in
  Tango_dbms.Database.load_relation db "R" sample;
  let backend = Tango_dbms.Backend.in_process ~roundtrip_spin:0 db in
  let sql = Parser.query "SELECT K, V, T1, T2 FROM R ORDER BY K" in
  let out =
    Cursor.to_relation (Transfer.transfer_m backend ~schema:schema_kab sql)
  in
  Alcotest.(check int) "all rows" 5 (Relation.cardinality out);
  Alcotest.(check int) "shipped" 5 (Tango_dbms.Backend.tuples_shipped backend)

let test_transfer_d_roundtrip () =
  let db = Tango_dbms.Database.create () in
  let backend = Tango_dbms.Backend.in_process ~roundtrip_spin:0 db in
  let td = Transfer.transfer_d backend ~table:"TMP1" (Cursor.of_relation sample) in
  Cursor.init td;
  Alcotest.(check bool) "empty cursor" true (Cursor.next_batch td = None);
  Alcotest.(check int) "loaded" 5 (Tango_dbms.Database.table_cardinality db "TMP1");
  (* Round trip back out. *)
  let sql = Parser.query "SELECT K, V, T1, T2 FROM TMP1" in
  let back = Cursor.to_relation (Transfer.transfer_m backend ~schema:schema_kab sql) in
  Alcotest.(check bool) "round trip" true (Relation.equal_multiset sample back);
  Transfer.drop_temp_table backend "TMP1";
  Alcotest.(check bool) "dropped" false (Tango_dbms.Database.table_exists db "TMP1")

let () =
  Alcotest.run "tango_xxl"
    [
      ( "cursor",
        [
          Alcotest.test_case "of_relation" `Quick test_cursor_of_relation;
          Alcotest.test_case "reader = batches" `Quick test_reader_matches_batches;
        ] );
      ( "basic",
        [
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "project" `Quick test_project;
        ] );
      ( "sort",
        [
          Alcotest.test_case "matches Relation.sort" `Quick test_sort_matches_relation_sort;
          Alcotest.test_case "multi-run external" `Quick test_sort_multi_run;
          Alcotest.test_case "stability" `Quick test_sort_stability;
        ] );
      ( "joins",
        [
          Alcotest.test_case "merge join vs reference" `Quick test_merge_join_vs_reference;
          Alcotest.test_case "residual predicate" `Quick test_merge_join_residual_pred;
          Alcotest.test_case "tjoin vs reference" `Quick test_tjoin_vs_reference;
          Alcotest.test_case "null keys never match" `Quick test_null_keys_never_match;
        ] );
      ( "taggr",
        [
          Alcotest.test_case "figure 3(c)" `Quick test_taggr_figure3c;
          Alcotest.test_case "all aggregates" `Quick test_taggr_all_aggregates;
          Alcotest.test_case "no grouping" `Quick test_taggr_no_grouping;
          Alcotest.test_case "output order" `Quick test_taggr_output_order;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "dup elim" `Quick test_dup_elim;
          Alcotest.test_case "difference" `Quick test_difference;
          Alcotest.test_case "coalesce" `Quick test_coalesce_vs_reference;
        ] );
      ( "batching",
        [
          Alcotest.test_case "operator differential" `Quick test_batch_differential;
          Alcotest.test_case "batch discipline" `Quick test_batch_discipline;
          Alcotest.test_case "re-init after a failed pull" `Quick
            test_reinit_after_failed_pull;
        ] );
      ( "transfers",
        [
          Alcotest.test_case "transfer^M" `Quick test_transfer_m;
          Alcotest.test_case "transfer^D roundtrip" `Quick test_transfer_d_roundtrip;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_taggr_matches_reference;
          QCheck_alcotest.to_alcotest prop_merge_join_matches_reference;
          QCheck_alcotest.to_alcotest prop_tjoin_matches_reference;
          QCheck_alcotest.to_alcotest prop_singletons_equal_whole;
        ] );
    ]
