(* Tests for Tango_obs — counters, histograms, registry snapshots, the
   JSON emitter, trace collection — and for the observability wired
   through the middleware pipeline (Middleware.Config tracing). *)

open Tango_obs
open Tango_core
open Tango_workload

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---------------- clocks and runtime attribution ---------------- *)

let test_clock_monotonic () =
  (* the monotonic clock never goes backwards and actually advances
     across a busy wait; the wall clock stays in the same epoch *)
  let a = mono_us () in
  let b = mono_us () in
  Alcotest.(check bool) "mono never backwards" true (b >= a);
  let t0 = mono_us () in
  while mono_us () -. t0 < 1_000.0 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "mono advances" true (mono_us () -. t0 >= 1_000.0);
  Alcotest.(check bool) "wall is epoch-based" true
    (now_us () > 1e15 (* after 2001-09 in µs *))

let test_runtime_measure () =
  (* allocating a visible amount of data must show up in the delta, and
     the delta must never be negative *)
  let r, d = Runtime.measure (fun () -> Array.make 100_000 0.0) in
  Alcotest.(check int) "result passed through" 100_000 (Array.length r);
  Alcotest.(check bool) "allocation attributed" true
    (d.Runtime.alloc_bytes >= 100_000 * 8);
  Alcotest.(check bool) "counters non-negative" true
    (d.Runtime.minor_collections >= 0
    && d.Runtime.major_collections >= 0
    && d.Runtime.promoted_words >= 0);
  let zero_then_add = Runtime.add Runtime.zero d in
  Alcotest.(check int) "zero is neutral for add" d.Runtime.alloc_bytes
    zero_then_add.Runtime.alloc_bytes

(* ---------------- counters ---------------- *)

let test_counter_arithmetic () =
  let c = Counter.make "test.counter_arith" in
  Counter.reset c;
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 40;
  Alcotest.(check int) "incr and add" 42 (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

let test_counter_find_or_create () =
  let a = Counter.make "test.counter_shared" in
  let b = Counter.make "test.counter_shared" in
  Counter.reset a;
  Counter.incr a;
  Counter.incr b;
  (* same registered instance: both increments visible through either *)
  Alcotest.(check int) "shared by name" 2 (Counter.value a);
  Alcotest.(check string) "name" "test.counter_shared" (Counter.name b)

(* ---------------- histograms ---------------- *)

let test_histogram_stats () =
  let h = Histogram.make "test.hist" in
  Histogram.reset h;
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Histogram.mean h);
  List.iter (Histogram.observe h) [ 2.0; 4.0; 6.0 ];
  Alcotest.(check int) "count" 3 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 12.0 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 6.0 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 4.0 (Histogram.mean h)

(* ---------------- registry ---------------- *)

let test_registry_snapshot_and_diff () =
  let c = Counter.make "test.reg_counter" in
  Counter.reset c;
  Counter.add c 5;
  let before = Registry.snapshot () in
  Counter.add c 7;
  let after = Registry.snapshot () in
  Alcotest.(check int) "snapshot value" 5
    (Registry.counter_value before "test.reg_counter");
  Alcotest.(check int) "absent name is 0" 0
    (Registry.counter_value before "test.no_such_counter");
  Alcotest.(check int) "later snapshot" 12
    (Registry.counter_value after "test.reg_counter");
  (* names come out sorted *)
  let names = List.map fst after.Registry.counters in
  Alcotest.(check bool) "sorted names" true
    (List.sort compare names = names)

(* ---------------- JSON emitter ---------------- *)

let test_json_emitter () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  Alcotest.(check string) "escaping and shapes"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":1.5,\"nan\":null,\"l\":[true,null]}"
    (Json.to_string doc)

(* ---------------- traces ---------------- *)

let test_trace_disabled_noop () =
  Alcotest.(check bool) "inactive" false (Trace.active ());
  let ran = ref false in
  let v = Trace.span "should.not.record" (fun () -> ran := true; 17) in
  Alcotest.(check bool) "thunk ran" true !ran;
  Alcotest.(check int) "value through" 17 v;
  Alcotest.(check bool) "no trace produced" true (Trace.finish () = None)

let test_trace_nesting () =
  Trace.start ();
  let v =
    Trace.span "root" (fun () ->
        Trace.attr "k" (Trace.Int 1);
        Trace.span "child1" (fun () -> ()) ;
        Trace.span "child2" (fun () ->
            Trace.graft (Trace.make "grafted" ~elapsed_us:5.0));
        42)
  in
  Alcotest.(check int) "value through" 42 v;
  match Trace.finish () with
  | None -> Alcotest.fail "no trace"
  | Some root ->
      Alcotest.(check string) "root name" "root" root.Trace.name;
      Alcotest.(check (list string)) "children in order"
        [ "child1"; "child2" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) root.Trace.children);
      Alcotest.(check (option int)) "attr" (Some 1)
        (Trace.attr_int root "k");
      Alcotest.(check bool) "grafted subtree found" true
        (Trace.find "grafted" root <> None);
      Alcotest.(check bool) "timed" true (root.Trace.elapsed_us >= 0.0);
      (* the render mentions every span *)
      let rendered = Trace.to_string root in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("render has " ^ n) true
            (is_infix ~affix:n rendered))
        [ "root"; "child1"; "child2"; "grafted" ]

let test_trace_exception_safe () =
  Trace.start ();
  (try Trace.span "outer" (fun () -> failwith "boom") with Failure _ -> ());
  (match Trace.finish () with
  | None -> Alcotest.fail "no trace"
  | Some root -> Alcotest.(check string) "span closed" "outer" root.Trace.name);
  Alcotest.(check bool) "collection stopped" false (Trace.active ())

(* ---------------- middleware integration ---------------- *)

let traced_session () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let config =
    Middleware.Config.(
      default |> with_roundtrip_spin 0 |> with_tracing true)
  in
  Middleware.connect ~config db

let test_middleware_trace () =
  let mw = traced_session () in
  let report = Middleware.query mw Queries.q1_sql in
  let root =
    match report.Middleware.trace with
    | Some s -> s
    | None -> Alcotest.fail "no trace on report"
  in
  Alcotest.(check string) "root span" "middleware.query" root.Trace.name;
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("has phase " ^ phase) true
        (Trace.find phase root <> None))
    [ "parse"; "optimize"; "optimize.saturate"; "optimize.plan"; "translate";
      "execute" ];
  (* the optimizer reported its exploration *)
  let opt = Option.get (Trace.find "optimize" root) in
  Alcotest.(check bool) "classes explored" true
    (match Trace.attr_int opt "classes" with Some n -> n > 0 | None -> false);
  (* the executed operator tree is grafted under execute, with tuple
     counts and round trips *)
  let exec = Option.get (Trace.find "execute" root) in
  Alcotest.(check bool) "execute rows" true
    (match Trace.attr_int exec "tuples" with Some n -> n > 0 | None -> false);
  let tm = Option.get (Trace.find "TRANSFER^M" root) in
  Alcotest.(check bool) "transfer produced tuples" true
    (match Trace.attr_int tm "tuples" with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "transfer made round trips" true
    (match Trace.attr_int tm "roundtrips" with Some n -> n > 0 | None -> false)

let test_middleware_metrics () =
  (* [since name ()]: whether the counter rose after [since name] *)
  let since name =
    let c = Counter.make name in
    let v0 = Counter.value c in
    fun () -> Counter.value c > v0
  in
  let statements = since "dbms.queries"
  and rules = since "volcano.rules_fired"
  and considered = since "volcano.plans_considered" in
  let mw = traced_session () in
  let r = Middleware.query mw Queries.q1_sql in
  (* the boundary meter is the backend's own *)
  let primary = Middleware.primary mw in
  Alcotest.(check bool) "client round trips counted" true
    (Tango_dbms.Backend.roundtrips primary > 0);
  Alcotest.(check bool) "client tuples counted" true
    (Tango_dbms.Backend.tuples_shipped primary > 0);
  Alcotest.(check bool) "dbms queries counted" true (statements ());
  Alcotest.(check bool) "volcano rules fired" true (rules ());
  Alcotest.(check bool) "volcano plans considered" true (considered ());
  Alcotest.(check bool) "executed transfer nodes counted tuples" true
    ((Middleware.breakdown r).Middleware.tm_rows > 0)

let test_tracing_off_no_trace () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let mw = Middleware.connect ~roundtrip_spin:0 db in
  let report = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "no trace collected" true
    (report.Middleware.trace = None)

let () =
  Alcotest.run "tango_obs"
    [
      ( "runtime",
        [
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
          Alcotest.test_case "gc/alloc measurement" `Quick
            test_runtime_measure;
        ] );
      ( "counters",
        [
          Alcotest.test_case "arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "find-or-create" `Quick test_counter_find_or_create;
        ] );
      ( "histograms",
        [ Alcotest.test_case "stats" `Quick test_histogram_stats ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot and diff" `Quick
            test_registry_snapshot_and_diff;
        ] );
      ("json", [ Alcotest.test_case "emitter" `Quick test_json_emitter ]);
      ( "traces",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_noop;
          Alcotest.test_case "nesting, attrs, graft" `Quick test_trace_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_trace_exception_safe;
        ] );
      ( "middleware",
        [
          Alcotest.test_case "query trace phases" `Quick test_middleware_trace;
          Alcotest.test_case "global metrics" `Quick test_middleware_metrics;
          Alcotest.test_case "tracing off" `Quick test_tracing_off_no_trace;
        ] );
    ]
