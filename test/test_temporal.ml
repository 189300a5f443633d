(* Tests for chronons and periods. *)

open Tango_temporal

let chr = Chronon.of_string

let test_chronon_epoch () =
  Alcotest.(check int) "epoch" 0 (Chronon.of_ymd ~y:1970 ~m:1 ~d:1);
  Alcotest.(check int) "next day" 1 (Chronon.of_ymd ~y:1970 ~m:1 ~d:2);
  Alcotest.(check int) "before epoch" (-1) (Chronon.of_ymd ~y:1969 ~m:12 ~d:31)

let test_chronon_roundtrip () =
  let dates =
    [ "1970-01-01"; "1995-01-01"; "2000-01-01"; "1997-02-08"; "1600-02-29";
      "2000-02-29"; "1999-12-31"; "0001-01-01" ]
  in
  List.iter
    (fun d -> Alcotest.(check string) d d (Chronon.to_string (chr d)))
    dates

let test_chronon_known_spans () =
  (* The paper's Section 3.3 example: Jan 1 1995 .. Jan 1 2000 spans 1826
     days; T1 ranges over 1819 distinct values when durations are 7. *)
  let span = chr "2000-01-01" - chr "1995-01-01" in
  Alcotest.(check int) "5-year span" 1826 span;
  Alcotest.(check int) "t1 domain" 1819 (chr "1999-12-25" - chr "1995-01-01")

let test_chronon_leap_years () =
  Alcotest.(check int) "1996 is leap" 366 (chr "1997-01-01" - chr "1996-01-01");
  Alcotest.(check int) "1900 not leap" 365 (chr "1901-01-01" - chr "1900-01-01");
  Alcotest.(check int) "2000 is leap" 366 (chr "2001-01-01" - chr "2000-01-01")

let p a b = Period.make a b

let test_period_validity () =
  Alcotest.check_raises "empty period"
    (Invalid_argument "Period.make: empty period [1970-01-11, 1970-01-11)")
    (fun () -> ignore (Period.make 10 10))

let test_period_overlaps () =
  Alcotest.(check bool) "overlap" true (Period.overlaps (p 1 10) (p 5 15));
  Alcotest.(check bool) "meets is not overlap" false (Period.overlaps (p 1 5) (p 5 10));
  Alcotest.(check bool) "contained" true (Period.overlaps (p 1 10) (p 3 4));
  Alcotest.(check bool) "disjoint" false (Period.overlaps (p 1 3) (p 7 9))

let test_period_intersect () =
  (match Period.intersect (p 1 10) (p 5 15) with
  | Some i ->
      Alcotest.(check int) "t1" 5 (Period.t1 i);
      Alcotest.(check int) "t2" 10 (Period.t2 i)
  | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "no intersect" true (Period.intersect (p 1 5) (p 5 9) = None)

let test_period_contains () =
  Alcotest.(check bool) "start in" true (Period.contains (p 2 5) 2);
  Alcotest.(check bool) "end out" false (Period.contains (p 2 5) 5);
  Alcotest.(check bool) "mid in" true (Period.contains (p 2 5) 4)

let test_period_coalesce () =
  let out = Period.coalesce [ p 5 10; p 1 6; p 12 15; p 15 20 ] in
  Alcotest.(check int) "two groups" 2 (List.length out);
  Alcotest.(check bool) "first" true (Period.equal (List.nth out 0) (p 1 10));
  Alcotest.(check bool) "second" true (Period.equal (List.nth out 1) (p 12 20))

let test_constant_intervals () =
  (* The paper's POSITION example for PosID 1: Tom [2,20), Jane [5,25)
     decomposes into [2,5):1, [5,20):2, [20,25):1. *)
  let out = Period.constant_intervals [ p 2 20; p 5 25 ] in
  Alcotest.(check int) "three intervals" 3 (List.length out);
  let check i a b n =
    let pi, c = List.nth out i in
    Alcotest.(check bool) (Printf.sprintf "interval %d" i) true
      (Period.equal pi (p a b) && c = n)
  in
  check 0 2 5 1;
  check 1 5 20 2;
  check 2 20 25 1

let test_constant_intervals_gap () =
  (* Disjoint periods produce no interval for the gap. *)
  let out = Period.constant_intervals [ p 1 3; p 7 9 ] in
  Alcotest.(check int) "two intervals" 2 (List.length out);
  List.iter
    (fun (pi, c) ->
      Alcotest.(check int) "count 1" 1 c;
      Alcotest.(check bool) "no gap interval" false (Period.equal pi (p 3 7)))
    out

let test_covered () =
  Alcotest.(check int) "covered" 9 (Period.covered [ p 1 6; p 4 8; p 10 12 ])

(* Linking this library upgrades Date rendering and CSV date parsing. *)
let test_value_hooks () =
  Alcotest.(check string) "dates print ISO" "1997-02-01"
    (Tango_rel.Value.to_string (Tango_rel.Value.Date (chr "1997-02-01")));
  let schema =
    Tango_rel.Schema.make
      [ ("K", Tango_rel.Value.TInt); ("D", Tango_rel.Value.TDate) ]
  in
  let path = Filename.temp_file "tango_dates" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "K:INT,D:DATE
1,1997-02-01
2,9999
";
      close_out oc;
      let r = Tango_rel.Csv.read_file path in
      let d1 = Tango_rel.Tuple.field schema (Tango_rel.Relation.tuples r).(0) "D" in
      let d2 = Tango_rel.Tuple.field schema (Tango_rel.Relation.tuples r).(1) "D" in
      Alcotest.(check int) "ISO cell" (chr "1997-02-01") (Tango_rel.Value.to_int d1);
      Alcotest.(check int) "raw chronon cell" 9999 (Tango_rel.Value.to_int d2))

(* property tests *)

let period_gen =
  QCheck.Gen.(
    map
      (fun (a, d) -> Period.make a (a + 1 + d))
      (pair (int_bound 100) (int_bound 50)))

let arbitrary_period = QCheck.make ~print:Period.to_string period_gen

let prop_intersect_symmetric =
  QCheck.Test.make ~name:"intersect symmetric" ~count:500
    QCheck.(pair arbitrary_period arbitrary_period)
    (fun (a, b) ->
      match (Period.intersect a b, Period.intersect b a) with
      | None, None -> true
      | Some x, Some y -> Period.equal x y
      | _ -> false)

let prop_overlaps_iff_intersect =
  QCheck.Test.make ~name:"overlaps iff intersect" ~count:500
    QCheck.(pair arbitrary_period arbitrary_period)
    (fun (a, b) -> Period.overlaps a b = (Period.intersect a b <> None))

let prop_coalesce_preserves_cover =
  QCheck.Test.make ~name:"coalesce preserves covered chronons" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 10) arbitrary_period)
    (fun ps ->
      let covered_by ps c = List.exists (fun p -> Period.contains p c) ps in
      let out = Period.coalesce ps in
      let all = List.init 160 (fun i -> i) in
      List.for_all (fun c -> covered_by ps c = covered_by out c) all)

let prop_constant_intervals_counts =
  QCheck.Test.make ~name:"constant intervals count covering periods" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) arbitrary_period)
    (fun ps ->
      let out = Period.constant_intervals ps in
      List.for_all
        (fun (pi, n) ->
          let mid = Period.t1 pi in
          let cover = List.length (List.filter (fun p -> Period.contains p mid) ps) in
          cover = n)
        out)

let () =
  Alcotest.run "tango_temporal"
    [
      ( "chronon",
        [
          Alcotest.test_case "epoch" `Quick test_chronon_epoch;
          Alcotest.test_case "roundtrip" `Quick test_chronon_roundtrip;
          Alcotest.test_case "known spans" `Quick test_chronon_known_spans;
          Alcotest.test_case "leap years" `Quick test_chronon_leap_years;
        ] );
      ( "period",
        [
          Alcotest.test_case "validity" `Quick test_period_validity;
          Alcotest.test_case "overlaps" `Quick test_period_overlaps;
          Alcotest.test_case "intersect" `Quick test_period_intersect;
          Alcotest.test_case "contains" `Quick test_period_contains;
          Alcotest.test_case "coalesce" `Quick test_period_coalesce;
          Alcotest.test_case "constant intervals" `Quick test_constant_intervals;
          Alcotest.test_case "constant intervals gap" `Quick test_constant_intervals_gap;
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "value/csv hooks" `Quick test_value_hooks;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_intersect_symmetric;
          QCheck_alcotest.to_alcotest prop_overlaps_iff_intersect;
          QCheck_alcotest.to_alcotest prop_coalesce_preserves_cover;
          QCheck_alcotest.to_alcotest prop_constant_intervals_counts;
        ] );
    ]
