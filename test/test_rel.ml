(* Tests for the relational foundation: values, schemas, tuples, orders,
   relations, histograms, CSV. *)

open Tango_rel

let v_int i = Value.Int i
let v_str s = Value.Str s

(* ------------- Value ------------- *)

let test_value_compare () =
  Alcotest.(check int) "int lt" (-1) (compare (Value.compare (Value.Int 1) (Value.Int 2)) 0);
  Alcotest.(check bool) "int/float eq" true (Value.equal (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "null lt int" true (Value.compare Value.Null (Value.Int 0) < 0);
  Alcotest.(check bool) "str order" true (Value.compare (v_str "abc") (v_str "abd") < 0);
  Alcotest.(check bool) "date order" true (Value.compare (Value.Date 10) (Value.Date 11) < 0)

let test_value_arith () =
  Alcotest.(check bool) "add ints" true (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool) "date + int" true
    (Value.equal (Value.add (Value.Date 10) (v_int 5)) (Value.Date 15));
  Alcotest.(check bool) "date - date" true
    (Value.equal (Value.sub (Value.Date 15) (Value.Date 10)) (v_int 5));
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (Value.div (v_int 1) (v_int 0)));
  Alcotest.(check bool) "null propagates" true (Value.is_null (Value.add Value.Null (v_int 1)))

let test_value_greatest_least () =
  Alcotest.(check bool) "greatest" true
    (Value.equal (Value.greatest (v_int 3) (v_int 7)) (v_int 7));
  Alcotest.(check bool) "least" true
    (Value.equal (Value.least (v_int 3) (v_int 7)) (v_int 3));
  Alcotest.(check bool) "greatest null" true
    (Value.is_null (Value.greatest Value.Null (v_int 7)))

let test_value_serialize_roundtrip () =
  let vs =
    [ Value.Null; Value.Bool true; Value.Int (-42); Value.Float 3.25;
      Value.Str "hello, world"; Value.Str ""; Value.Date 9954 ]
  in
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Value.serialize buf v;
      let v' = Value.read (Value.reader (Buffer.contents buf) 0) in
      Alcotest.(check bool) (Value.to_string v) true (Value.equal v v')
      (* Null = Null under Value.equal *))
    vs

(* ------------- Schema ------------- *)

let s_pos =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("T1", Value.TDate); ("T2", Value.TDate) ]

let test_schema_lookup () =
  Alcotest.(check int) "by name" 0 (Schema.index s_pos "PosID");
  Alcotest.(check int) "T2" 3 (Schema.index s_pos "T2");
  Alcotest.check Alcotest.bool "missing" false (Schema.mem s_pos "Nope")

let test_schema_qualify () =
  let q = Schema.qualify "A" s_pos in
  Alcotest.(check int) "qualified exact" 1 (Schema.index q "A.EmpName");
  Alcotest.(check int) "base-name fallback" 1 (Schema.index q "EmpName");
  let u = Schema.unqualify q in
  Alcotest.(check bool) "unqualify" true (Schema.equal u s_pos)

let test_schema_ambiguity () =
  let q = Schema.concat (Schema.qualify "A" s_pos) (Schema.qualify "B" s_pos) in
  Alcotest.check_raises "ambiguous base name" Not_found (fun () ->
      ignore (Schema.index q "PosID"));
  Alcotest.(check int) "qualified resolves" 4 (Schema.index q "B.PosID")

let test_schema_project_rename () =
  let p = Schema.project s_pos [ "T1"; "PosID" ] in
  Alcotest.(check (list string)) "order kept" [ "T1"; "PosID" ] (Schema.names p);
  let r = Schema.rename s_pos "PosID" "ID" in
  Alcotest.(check bool) "renamed" true (Schema.mem r "ID")

(* ------------- Tuple ------------- *)

let t1 = Tuple.of_list [ v_int 1; v_str "Tom"; Value.Date 2; Value.Date 20 ]

let test_tuple_basics () =
  Alcotest.(check int) "arity" 4 (Tuple.arity t1);
  Alcotest.(check bool) "field" true (Value.equal (Tuple.field s_pos t1 "EmpName") (v_str "Tom"));
  let p = Tuple.project s_pos [ "T2"; "PosID" ] t1 in
  Alcotest.(check bool) "project" true
    (Tuple.equal p (Tuple.of_list [ Value.Date 20; v_int 1 ]))

let test_tuple_marshal () =
  let t' = Tuple.marshal_roundtrip t1 in
  Alcotest.(check bool) "roundtrip" true (Tuple.equal t1 t');
  (* one reader walks consecutive tuples, ending exactly past the last *)
  let buf = Buffer.create 64 in
  let ts = [ t1; Tuple.of_list []; Tuple.of_list [ Value.Null; Value.Str "" ] ] in
  List.iter (Tuple.serialize buf) ts;
  let r = Value.reader (Buffer.contents buf) 0 in
  let back = List.map (fun _ -> Tuple.read r) ts in
  Alcotest.(check bool) "consecutive" true (List.for_all2 Tuple.equal ts back);
  Alcotest.(check int) "end position" (Buffer.length buf) r.Value.pos;
  (* skipping fields of every type lands where a full read does, each
     skipped field reading as NULL in its place *)
  let every =
    Tuple.of_list
      [ Value.Null; Value.Bool true; v_int (-3); Value.Float 2.5; v_str "abc";
        Value.Date 9; v_str "" ]
  in
  let buf = Buffer.create 64 in
  Tuple.serialize buf every;
  Tuple.serialize buf t1;
  List.iter
    (fun keep ->
      let r = Value.reader (Buffer.contents buf) 0 in
      let got = Tuple.read_cols keep r in
      Alcotest.(check bool) "kept fields built, skipped ones NULL" true
        (Tuple.equal got
           (Array.mapi (fun i v -> if keep.(i) then v else Value.Null) every));
      Alcotest.(check bool) "next tuple read from where the skip ended" true
        (Tuple.equal (Tuple.read r) t1))
    [ Array.make 7 false; Array.make 7 true; Array.init 7 (fun i -> i mod 2 = 0) ]

(* ------------- Order / Relation ------------- *)

let mk_rel rows =
  Relation.of_list s_pos
    (List.map
       (fun (p, n, a, b) ->
         Tuple.of_list [ v_int p; v_str n; Value.Date a; Value.Date b ])
       rows)

let sample =
  mk_rel [ (2, "Tom", 5, 10); (1, "Tom", 2, 20); (1, "Jane", 5, 25) ]

let test_relation_sort () =
  let sorted = Relation.sort [ Order.asc "PosID"; Order.asc "T1" ] sample in
  let ids = Array.to_list (Relation.column sorted "PosID") in
  Alcotest.(check bool) "sorted ids" true
    (List.map Value.to_int ids = [ 1; 1; 2 ]);
  Alcotest.(check bool) "order property" true
    (Order.equal (Relation.order sorted) [ Order.asc "PosID"; Order.asc "T1" ])

let test_relation_sort_stable () =
  (* Two tuples with the same key keep their input order. *)
  let r = mk_rel [ (1, "B", 1, 2); (1, "A", 1, 2) ] in
  let sorted = Relation.sort [ Order.asc "PosID" ] r in
  let names = Array.to_list (Relation.column sorted "EmpName") in
  Alcotest.(check bool) "stable" true
    (names = [ v_str "B"; v_str "A" ])

let test_relation_filter_project () =
  let f =
    Relation.filter
      (fun t -> Value.to_int (Tuple.field s_pos t "PosID") = 1)
      sample
  in
  Alcotest.(check int) "filter count" 2 (Relation.cardinality f);
  Alcotest.(check bool) "order kept" true
    (Relation.equal_list f
       (Relation.of_list s_pos [ (Relation.tuples sample).(1); (Relation.tuples sample).(2) ]));
  (* nothing dropped: the relation itself, no copy *)
  Alcotest.(check bool) "keep-all shares" true (Relation.filter (fun _ -> true) sample == sample);
  Alcotest.(check int) "drop-all" 0
    (Relation.cardinality (Relation.filter (fun _ -> false) sample));
  let calls = ref 0 in
  ignore (Relation.filter (fun _ -> incr calls; true) sample);
  Alcotest.(check int) "one call per tuple" 3 !calls;
  let p = Relation.project [ "PosID"; "T1" ] sample in
  Alcotest.(check int) "project arity" 2 (Schema.arity (Relation.schema p))

let test_relation_equal_multiset () =
  let a = mk_rel [ (1, "X", 1, 2); (2, "Y", 3, 4) ] in
  let b = mk_rel [ (2, "Y", 3, 4); (1, "X", 1, 2) ] in
  Alcotest.(check bool) "multiset eq" true (Relation.equal_multiset a b);
  Alcotest.(check bool) "list neq" false (Relation.equal_list a b)

let test_relation_stats () =
  Alcotest.(check int) "distinct PosID" 2 (Relation.distinct_count sample "PosID");
  Alcotest.(check bool) "min T1" true
    (Value.equal (Option.get (Relation.min_value sample "T1")) (Value.Date 2));
  Alcotest.(check bool) "max T2" true
    (Value.equal (Option.get (Relation.max_value sample "T2")) (Value.Date 25))

let test_order_prefix () =
  let o1 = [ Order.asc "A"; Order.asc "B" ] in
  Alcotest.(check bool) "prefix yes" true (Order.is_prefix [ Order.asc "A" ] o1);
  Alcotest.(check bool) "prefix no" false (Order.is_prefix [ Order.asc "B" ] o1);
  Alcotest.(check bool) "satisfies" true
    (Order.satisfies ~actual:o1 ~required:[ Order.asc "A" ]);
  Alcotest.(check bool) "desc differs" false
    (Order.is_prefix [ { Order.attr = "A"; dir = Order.Desc } ] o1)

(* ------------- Histogram ------------- *)

let values_1_to n = Array.init n (fun i -> Value.Int (i + 1))

let test_histogram_equidepth () =
  let h = Histogram.height_balanced ~buckets:4 (values_1_to 100) in
  Alcotest.(check int) "buckets" 4 (Histogram.bucket_count h);
  Alcotest.(check int) "total" 100 (Histogram.total h);
  (* Every bucket has 25 values. *)
  for i = 0 to 3 do
    Alcotest.(check int) "bucket size" 25 (Histogram.b_val h i)
  done

let test_histogram_count_below () =
  let h = Histogram.height_balanced ~buckets:10 (values_1_to 1000) in
  let below = Histogram.count_below h 500.0 in
  Alcotest.(check bool) "count below ~ 500" true (abs_float (below -. 500.0) < 20.0);
  Alcotest.(check bool) "below min" true (Histogram.count_below h 0.0 < 2.0);
  Alcotest.(check bool) "above max" true
    (abs_float (Histogram.count_below h 2000.0 -. 1000.0) < 2.0)

let test_histogram_skewed () =
  (* Skew: 90 copies of 1, 10 distinct high values — equi-depth adapts. *)
  let vs =
    Array.append (Array.make 90 (Value.Int 1)) (Array.init 10 (fun i -> Value.Int (100 + i)))
  in
  let h = Histogram.height_balanced ~buckets:5 vs in
  let below = Histogram.count_below h 50.0 in
  Alcotest.(check bool) "skew captured" true (below >= 85.0 && below <= 95.0)

(* ------------- CSV ------------- *)

let test_csv_roundtrip () =
  let path = Filename.temp_file "tango_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* typed header, quoted fields *)
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            "PosID:INT,EmpName:VARCHAR,T1:DATE,T2:DATE\n\
             1,\"with, comma\",1,2\n\
             2,\"quote\"\"inside\",3,4\n");
      let r = mk_rel [ (1, "with, comma", 1, 2); (2, "quote\"inside", 3, 4) ] in
      let r' = Csv.read_file path in
      Alcotest.(check bool) "roundtrip" true (Relation.equal_list r r');
      (* a row whose field count differs from the header's is rejected *)
      Out_channel.with_open_text path (fun oc ->
          output_string oc "PosID:INT,EmpName:VARCHAR\n1,a\n2\n");
      (match Csv.read_file path with
      | _ -> Alcotest.fail "short row accepted"
      | exception Failure _ -> ());
      (* so is an unknown column type *)
      Out_channel.with_open_text path (fun oc ->
          output_string oc "PosID:INT,EmpName:BOGUS\n1,a\n");
      match Csv.read_file path with
      | _ -> Alcotest.fail "unknown type accepted"
      | exception Failure _ -> ())

(* ------------- property tests ------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.0);
        map (fun s -> Value.Str s) (string_size (int_bound 12));
        map (fun d -> Value.Date d) (int_bound 10000);
      ])

let arbitrary_value = QCheck.make ~print:Value.to_string value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value serialize/deserialize roundtrip" ~count:500
    arbitrary_value (fun v ->
      let buf = Buffer.create 16 in
      Value.serialize buf v;
      let r = Value.reader (Buffer.contents buf) 0 in
      let v' = Value.read r in
      Value.equal v v' && r.Value.pos = Buffer.length buf)

let prop_compare_total_order =
  QCheck.Test.make ~name:"value compare is antisymmetric/transitive-ish"
    ~count:500
    QCheck.(triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      let ab = Value.compare a b and ba = Value.compare b a in
      let anti = compare ab 0 = compare 0 ba in
      let trans =
        if Value.compare a b <= 0 && Value.compare b c <= 0 then
          Value.compare a c <= 0
        else true
      in
      anti && trans)

let prop_sort_is_ordered =
  QCheck.Test.make ~name:"relation sort yields ordered column" ~count:200
    QCheck.(list (pair small_signed_int small_signed_int))
    (fun rows ->
      let schema = Schema.make [ ("A", Value.TInt); ("B", Value.TInt) ] in
      let r =
        Relation.of_list schema
          (List.map (fun (a, b) -> Tuple.of_list [ Value.Int a; Value.Int b ]) rows)
      in
      let sorted = Relation.sort [ Order.asc "A" ] r in
      let col = Relation.column sorted "A" in
      let ok = ref true in
      for i = 1 to Array.length col - 1 do
        if Value.compare col.(i - 1) col.(i) > 0 then ok := false
      done;
      !ok && Relation.cardinality sorted = Relation.cardinality r)

let () =
  Alcotest.run "tango_rel"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "greatest/least" `Quick test_value_greatest_least;
          Alcotest.test_case "serialize roundtrip" `Quick test_value_serialize_roundtrip;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "qualify" `Quick test_schema_qualify;
          Alcotest.test_case "ambiguity" `Quick test_schema_ambiguity;
          Alcotest.test_case "project/rename" `Quick test_schema_project_rename;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "marshal" `Quick test_tuple_marshal;
        ] );
      ( "relation",
        [
          Alcotest.test_case "sort" `Quick test_relation_sort;
          Alcotest.test_case "sort stability" `Quick test_relation_sort_stable;
          Alcotest.test_case "filter/project" `Quick test_relation_filter_project;
          Alcotest.test_case "multiset equality" `Quick test_relation_equal_multiset;
          Alcotest.test_case "column stats" `Quick test_relation_stats;
          Alcotest.test_case "order prefix" `Quick test_order_prefix;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "equi-depth" `Quick test_histogram_equidepth;
          Alcotest.test_case "count_below" `Quick test_histogram_count_below;
          Alcotest.test_case "skewed data" `Quick test_histogram_skewed;
        ] );
      ("csv", [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_value_roundtrip;
          QCheck_alcotest.to_alcotest prop_compare_total_order;
          QCheck_alcotest.to_alcotest prop_sort_is_ordered;
        ] );
    ]
