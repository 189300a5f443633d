(* Tests for Tango_monitor — the Prometheus and Chrome-trace exporters,
   the per-query event log (a ring that stores every event), the SLO
   burn-rate engine, the read-only watchdog, the HTTP server, and the
   monitoring endpoints driven end-to-end over a real middleware
   session. *)

open Tango_obs
open Tango_core
open Tango_monitor
open Tango_workload

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let check_infix what affix s =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S present" what affix)
    true (is_infix ~affix s)

(* ---------------- obs: fixed histogram buckets ---------------- *)

(* The registry snapshot's cumulative buckets of the histogram [name]. *)
let snapshot_buckets name =
  (List.assoc name (Registry.snapshot ()).Registry.histograms).Registry.buckets

let test_histogram_buckets () =
  let h = Histogram.make "test.monitor_buckets" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 0.5; 1.0; 3.0; 1000.0; 1e9 ];
  (* cumulative cells over the bounds 1, 2, 4, ... 2^23: 0.5 and 1.0 land
     at bound 1, 3.0 at bound 4, 1000.0 at bound 1024, 1e9 overflows *)
  let cum = snapshot_buckets "test.monitor_buckets" in
  Alcotest.(check (list (float 0.0))) "bounds"
    (List.init 24 (fun i -> float_of_int (1 lsl i)) @ [ infinity ])
    (List.map fst cum);
  let at i = snd (List.nth cum i) in
  Alcotest.(check int) "le 1" 2 (at 0);
  Alcotest.(check int) "le 2" 2 (at 1);
  Alcotest.(check int) "le 4" 3 (at 2);
  Alcotest.(check int) "le 1024" 4 (at 10);
  Alcotest.(check int) "le 2^23" 4 (at 23);
  (* closed by (+Inf, count), the overflow included *)
  Alcotest.(check int) "total at +Inf" 5 (at 24);
  ignore
    (List.fold_left
       (fun prev (_, c) ->
         Alcotest.(check bool) "monotone" true (c >= prev);
         c)
       0 cum)

let test_bucket_quantile () =
  (* the quantile is the upper bound of the bucket holding the
     observation of rank ceil(q*count), clamped to the max *)
  let h = Histogram.make "test.monitor_bucket_quantile" in
  Histogram.reset h;
  Alcotest.(check (float 0.0)) "empty" 0.0 (Histogram.quantile h 0.5);
  for _ = 1 to 99 do
    Histogram.observe h 3.0
  done;
  Histogram.observe h 5000.0;
  Alcotest.(check (float 0.0)) "p99 is the bucket of 3.0" 4.0
    (Histogram.quantile h 0.99);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 5000.0
    (Histogram.quantile h 1.0)

(* ---------------- prometheus ---------------- *)

let test_prometheus_golden () =
  (* a synthetic snapshot renders to exactly this exposition text *)
  let snapshot =
    {
      Registry.counters = [ ("monitor.queries", 42) ];
      histograms =
        [
          ( "query.us",
            {
              Registry.count = 3;
              sum = 10.5;
              min = 1.0;
              max = 7.0;
              mean = 3.5;
              p50 = 2.5;
              p95 = 7.0;
              p99 = 7.0;
              buckets = [ (1.0, 0); (2.0, 2); (infinity, 3) ];
            } );
        ];
    }
  in
  let expected =
    "# TYPE tango_monitor_queries counter\n\
     tango_monitor_queries 42\n\
     # TYPE tango_query_us histogram\n\
     tango_query_us_bucket{le=\"1\"} 0\n\
     tango_query_us_bucket{le=\"2\"} 2\n\
     tango_query_us_bucket{le=\"+Inf\"} 3\n\
     tango_query_us_sum 10.5\n\
     tango_query_us_count 3\n"
  in
  Alcotest.(check string) "golden" expected (Prometheus.render snapshot)

let test_prometheus_names_and_gauges () =
  let counter ?namespace name =
    Prometheus.render ?namespace
      { Registry.counters = [ (name, 1) ]; histograms = [] }
  in
  check_infix "sanitized" "\ntango_monitor_round_trips_ 1\n"
    (counter "monitor.round-trips!");
  check_infix "custom namespace" "\nacme_x_y 1\n" (counter ~namespace:"acme" "x.y");
  Alcotest.(check string) "gauge family"
    "# TYPE tango_monitor_slo_state gauge\ntango_monitor_slo_state 2\n"
    (Prometheus.gauge ~name:"monitor.slo_state" 2.0);
  Alcotest.(check string) "gauge labels"
    "# TYPE tango_up gauge\ntango_up{job=\"a\\\"b\"} 1\n"
    (Prometheus.gauge ~name:"up" ~labels:[ ("job", "a\"b") ] 1.0)

let test_prometheus_le_labels () =
  (* every rendered bound parses back to exactly its bucket bound *)
  let h = Histogram.make "test.monitor_le_labels" in
  Histogram.reset h;
  Histogram.observe h 3.0;
  let text =
    Prometheus.render
      {
        Registry.counters = [];
        histograms =
          [ List.find (fun (n, _) -> n = "test.monitor_le_labels")
              (Registry.snapshot ()).Registry.histograms ];
      }
  in
  let prefix = "tango_test_monitor_le_labels_bucket{le=\"" in
  let labels =
    List.filter_map
      (fun line ->
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          let rest = String.sub line n (String.length line - n) in
          Some (String.sub rest 0 (String.index rest '"'))
        else None)
      (String.split_on_char '\n' text)
  in
  let bounds = List.map fst (snapshot_buckets "test.monitor_le_labels") in
  Alcotest.(check int) "one label per bound plus +Inf" (List.length bounds)
    (List.length labels);
  List.iter2
    (fun bound label ->
      Alcotest.(check (float 0.0)) ("le=" ^ label) bound
        (float_of_string label))
    bounds labels

let test_prometheus_runtime_gauges () =
  let text = Prometheus.runtime_gauges () in
  check_infix "heap words gauge" "# TYPE tango_gc_heap_words gauge" text;
  check_infix "top heap gauge" "tango_gc_top_heap_words" text;
  check_infix "compactions gauge" "tango_gc_compactions" text

(* ---------------- chrome trace ---------------- *)

(* root(100) with children a(40) and b(20), b holding attrs and a nested
   child c(5): preorder events, children starting at the parent start,
   siblings back to back. *)
let test_chrome_trace_layout () =
  let c = Trace.make ~elapsed_us:5.0 "c" in
  let b =
    Trace.make ~elapsed_us:20.0
      ~attrs:[ ("tuples", Trace.Int 7); ("alg", Trace.Str "sort") ]
      ~children:[ c ] "b"
  in
  let a = Trace.make ~elapsed_us:40.0 "a" in
  let root = Trace.make ~elapsed_us:100.0 ~children:[ a; b ] "root" in
  let events = Chrome_trace.events root in
  Alcotest.(check int) "one event per span" 4 (List.length events);
  let field name = function
    | Json.Obj kvs -> List.assoc name kvs
    | _ -> Alcotest.fail "event is not an object"
  in
  let names =
    List.map (fun e -> match field "name" e with
      | Json.String s -> s
      | _ -> "?")
      events
  in
  Alcotest.(check (list string)) "preorder" [ "root"; "a"; "b"; "c" ] names;
  let ts e = match field "ts" e with
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> nan
  in
  let by_name n =
    List.find (fun e -> field "name" e = Json.String n) events
  in
  Alcotest.(check (float 1e-9)) "root at 0" 0.0 (ts (by_name "root"));
  Alcotest.(check (float 1e-9)) "first child at parent start" 0.0
    (ts (by_name "a"));
  Alcotest.(check (float 1e-9)) "sibling laid after" 40.0 (ts (by_name "b"));
  Alcotest.(check (float 1e-9)) "nested child at b's start" 40.0
    (ts (by_name "c"));
  Alcotest.(check bool) "pipeline on pid 1, tid 1" true
    (field "pid" (by_name "c") = Json.Int 1
    && field "tid" (by_name "c") = Json.Int 1);
  (match field "ph" (by_name "root") with
  | Json.String ph -> Alcotest.(check string) "complete events" "X" ph
  | _ -> Alcotest.fail "ph missing");
  match field "args" (by_name "b") with
  | Json.Obj args ->
      Alcotest.(check bool) "attr exported" true
        (List.assoc "tuples" args = Json.Int 7)
  | _ -> Alcotest.fail "args missing"

let test_chrome_trace_json () =
  let root =
    Trace.make ~elapsed_us:10.0
      ~children:[ Trace.make ~elapsed_us:4.0 "child" ]
      "q\"uote"
  in
  let s = Json.to_string (Chrome_trace.to_json root) in
  check_infix "envelope" "{\"traceEvents\":[" s;
  check_infix "unit" "\"displayTimeUnit\":\"ms\"" s;
  check_infix "escaping" "q\\\"uote" s;
  (* the structural form round-trips through the Json document model *)
  match Chrome_trace.to_json root with
  | Json.Obj kvs -> (
      match List.assoc "traceEvents" kvs with
      | Json.List evs -> Alcotest.(check int) "two events" 2 (List.length evs)
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "not an object"

(* every backend gets its own lane: a thread_name metadata event on tids
   2, 3, ... followed by a transfer slice and a gather-wait slice laid
   back to back from 0 *)
let test_chrome_backend_lanes () =
  let root = Trace.make ~elapsed_us:10.0 "root" in
  let events =
    match
      Chrome_trace.to_json
        ~backends:[ ("s0", 40.0, 10.0); ("s1", 5.0, 0.0) ]
        root
    with
    | Json.Obj kvs -> (
        match List.assoc "traceEvents" kvs with
        | Json.List (_span :: lanes) -> lanes
        | _ -> Alcotest.fail "traceEvents is not a span-led list")
    | _ -> Alcotest.fail "not an object"
  in
  Alcotest.(check int) "three events per backend" 6 (List.length events);
  let field name = function
    | Json.Obj kvs -> List.assoc name kvs
    | _ -> Alcotest.fail "event is not an object"
  in
  let meta = List.nth events 0 in
  Alcotest.(check bool) "metadata event" true
    (field "ph" meta = Json.String "M");
  Alcotest.(check bool) "first lane on tid 2" true
    (field "tid" meta = Json.Int 2);
  (match field "args" meta with
  | Json.Obj args ->
      Alcotest.(check bool) "lane label" true
        (List.assoc "name" args = Json.String "backend:s0")
  | _ -> Alcotest.fail "args missing");
  let transfer = List.nth events 1 and wait = List.nth events 2 in
  Alcotest.(check bool) "transfer slice" true
    (field "name" transfer = Json.String "transfer"
    && field "ts" transfer = Json.Float 0.0
    && field "dur" transfer = Json.Float 40.0);
  Alcotest.(check bool) "gather-wait laid after transfer" true
    (field "name" wait = Json.String "gather-wait"
    && field "ts" wait = Json.Float 40.0
    && field "dur" wait = Json.Float 10.0);
  Alcotest.(check bool) "second lane on tid 3" true
    (field "tid" (List.nth events 3) = Json.Int 3)

(* ---------------- event log ---------------- *)

(* The event log's registry metrics, found by name. *)
let queries_total = Counter.make "monitor.queries"
let query_errors = Counter.make "monitor.query_errors"
let query_us = Histogram.make "monitor.query_us"

let event ?(kind = "query") ?sql ?(started_us = 0.0) ?(elapsed_us = 100.0)
    ?error () : Middleware.query_event =
  { Middleware.kind; sql; started_us; elapsed_us; run = None; error;
    gc = Tango_obs.Runtime.zero }

let seqs log = List.map (fun r -> r.Event_log.seq) (Event_log.recent log)

let test_event_log_eviction () =
  let log = Event_log.create ~capacity:4 () in
  for _ = 1 to 6 do
    Event_log.observe log (event ())
  done;
  Alcotest.(check int) "seen counts evictions too" 6 (Event_log.seen log);
  (* newest first, oldest two evicted *)
  Alcotest.(check (list int)) "newest first" [ 5; 4; 3; 2 ] (seqs log);
  Alcotest.(check (list int)) "recent ~n" [ 5; 4 ]
    (List.map (fun r -> r.Event_log.seq) (Event_log.recent ~n:2 log))

(* There is no admission policy: slow and failed events are stored like
   any other, each under its arrival ordinal. *)
let test_event_log_stores_every_event () =
  let log = Event_log.create () in
  Event_log.observe log (event ());
  Event_log.observe log (event ~elapsed_us:5000.0 ());
  Event_log.observe log (event ~error:"boom" ());
  Event_log.observe log (event ());
  Alcotest.(check (list int)) "every event" [ 3; 2; 1; 0 ] (seqs log);
  match Event_log.find log 2 with
  | Some r ->
      Alcotest.(check (option string)) "error text" (Some "boom")
        r.Event_log.event.Middleware.error
  | None -> Alcotest.fail "failed event not stored"

let test_event_log_metrics () =
  Counter.reset queries_total;
  Counter.reset query_errors;
  Histogram.reset query_us;
  let log = Event_log.create () in
  for _ = 1 to 4 do
    Event_log.observe log (event ())
  done;
  Event_log.observe log (event ~error:"x" ());
  Alcotest.(check int) "queries" 5 (Counter.value queries_total);
  Alcotest.(check int) "errors" 1 (Counter.value query_errors);
  Alcotest.(check int) "latency observations" 5 (Histogram.count query_us);
  Histogram.reset query_us

let test_event_log_json () =
  let log = Event_log.create () in
  Event_log.observe log (event ~sql:"VALIDTIME SELECT 1" ());
  match Event_log.to_json log with
  | Json.List [ Json.Obj kvs ] ->
      Alcotest.(check bool) "sql" true
        (List.assoc "sql" kvs = Json.String "VALIDTIME SELECT 1");
      Alcotest.(check bool) "cache outcome rendered once" true
        (List.assoc "cache" kvs = Json.Null
        && not (List.mem_assoc "cache_hit" kvs || List.mem_assoc "cache_class" kvs));
      Alcotest.(check bool) "no admission label" false (List.mem_assoc "kept" kvs)
  | _ -> Alcotest.fail "expected a one-record JSON array"

(* ---------------- slo ---------------- *)

let slo_objective =
  {
    Slo.latency_us = 1000.0;
    latency_goal = 0.95;
    error_goal = 0.99;
    short_window_us = 10. *. 1e6;
    long_window_us = 100. *. 1e6;
    warn_burn = 1.0;
    critical_burn = 4.0;
  }

let test_slo_transitions () =
  let t = Slo.create ~objective:slo_objective () in
  (* 100 fast, healthy queries over the first 10s *)
  for i = 0 to 99 do
    Slo.observe t ~now_us:(float_of_int i *. 1e5) ~latency_us:100.0 ~ok:true
  done;
  let v = Slo.evaluate t ~now_us:9.9e6 in
  Alcotest.(check bool) "healthy" true (v.Slo.state = Slo.Ok);
  Alcotest.(check int) "short total" 100 v.Slo.short.Slo.total;
  (* 10 slow queries at t=50s: the short window sees only them (burn 20),
     the long window dilutes to 10/110 -> burn ~1.8 — Warning, not
     Critical: the two-window rule needs both windows above threshold *)
  for i = 0 to 9 do
    Slo.observe t
      ~now_us:(5e7 +. (float_of_int i *. 1e5))
      ~latency_us:5000.0 ~ok:true
  done;
  let v = Slo.evaluate t ~now_us:5.5e7 in
  Alcotest.(check bool) "warning" true (v.Slo.state = Slo.Warning);
  Alcotest.(check bool) "short burns hot" true
    (v.Slo.latency_burn_short >= 4.0);
  Alcotest.(check bool) "long still below critical" true
    (v.Slo.latency_burn_long < 4.0);
  (* 60 more slow queries push the long window over critical too *)
  for i = 0 to 59 do
    Slo.observe t
      ~now_us:(6e7 +. (float_of_int i *. 1e5))
      ~latency_us:5000.0 ~ok:true
  done;
  let v = Slo.evaluate t ~now_us:6.65e7 in
  Alcotest.(check bool) "critical" true (v.Slo.state = Slo.Critical);
  (* once both windows slide past the bad period, the state recovers *)
  let v = Slo.evaluate t ~now_us:3e8 in
  Alcotest.(check bool) "recovered" true (v.Slo.state = Slo.Ok);
  Alcotest.(check int) "windows empty" 0 v.Slo.long.Slo.total

let test_slo_availability () =
  let t = Slo.create ~objective:slo_objective () in
  for i = 0 to 9 do
    Slo.observe t
      ~now_us:(float_of_int i *. 1e5)
      ~latency_us:100.0
      ~ok:(i mod 2 = 0)
  done;
  (* 50% failures against a 1% budget: burn 50 in both windows *)
  let v = Slo.evaluate t ~now_us:1e6 in
  Alcotest.(check bool) "critical on errors" true (v.Slo.state = Slo.Critical);
  Alcotest.(check (float 1e-6)) "error burn" 50.0 v.Slo.error_burn_short;
  Alcotest.(check int) "failed counted" 5 v.Slo.short.Slo.failed

(* 230 queries/s for 120 s, the first 60 s of them slow, against the
   default 1 min / 10 min windows: the long window holds every query
   (a sample-count cap would hold the last 8,192 and read none slow),
   and the short window only the last minute. *)
let test_slo_long_window () =
  let t = Slo.create () in
  let rate = 230 and seconds = 120 in
  for i = 0 to (rate * seconds) - 1 do
    let at_s = float_of_int i /. float_of_int rate in
    Slo.observe t ~now_us:(at_s *. 1e6)
      ~latency_us:(if at_s < 60.0 then 200_000.0 else 1_000.0)
      ~ok:true
  done;
  let v = Slo.evaluate t ~now_us:(float_of_int seconds *. 1e6) in
  Alcotest.(check int) "long window holds every query" 27_600
    v.Slo.long.Slo.total;
  Alcotest.(check int) "long window holds the slow minute" 13_800
    v.Slo.long.Slo.slow;
  Alcotest.(check (float 1e-9)) "long burn: half slow over a 5% budget" 10.0
    v.Slo.latency_burn_long;
  Alcotest.(check int) "short window: the last 59 whole seconds" (59 * rate)
    v.Slo.short.Slo.total;
  Alcotest.(check int) "short window is healthy" 0 v.Slo.short.Slo.slow;
  Alcotest.(check bool) "two-window rule: ok" true (v.Slo.state = Slo.Ok)

(* The verdict's two renderings: the /metrics gauges, and the
   watchdog's JSON state and slo_burn detail. *)
let test_slo_json_and_gauges () =
  let t = Slo.create ~objective:slo_objective () in
  Slo.observe t ~now_us:0.0 ~latency_us:100.0 ~ok:true;
  let gauges = Slo.prometheus_gauges (Slo.evaluate t ~now_us:1e6) in
  Alcotest.(check (float 1e-9)) "state gauge" 0.0
    (List.assoc "monitor.slo_state" gauges);
  Alcotest.(check int) "five gauges" 5 (List.length gauges);
  let s =
    Json.to_string
      (Watchdog.verdict_to_json
         (Watchdog.evaluate ~now_us:1e6 ~slo:t ~log:(Event_log.create ()) ()))
  in
  check_infix "state" "\"state\":\"ok\"" s;
  check_infix "burn detail"
    "state=ok latency_burn=0.00/0.00 error_burn=0.00/0.00" s;
  Alcotest.(check bool) "rejects empty budget" true
    (try
       ignore (Slo.create ~objective:{ slo_objective with Slo.latency_goal = 1.0 } ());
       false
     with Invalid_argument _ -> true)

(* ---------------- watchdog ---------------- *)

let signal (v : Watchdog.verdict) name =
  List.find (fun (s : Watchdog.signal) -> s.Watchdog.name = name)
    v.Watchdog.signals

(* A plan-cached session whose event log is [log]. *)
let cached_session log =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.003 db;
  let config =
    Middleware.Config.(
      default |> with_roundtrip_spin 0 |> with_plan_cache true)
  in
  let mw = Middleware.connect ~config db in
  Middleware.set_query_observer mw (Some (Event_log.observe log));
  mw

(* Eight shapes no template shares: each first submission misses. *)
let distinct_shapes =
  List.map
    (fun cols -> "VALIDTIME SELECT " ^ cols ^ " FROM POSITION")
    [ "PosID"; "EmpName"; "PayRate"; "PosID, EmpName"; "EmpName, PosID";
      "PosID, PayRate"; "PayRate, PosID"; "EmpName, PayRate" ]

let test_watchdog_transitions () =
  Histogram.reset query_us;
  let now_us = 1e6 in
  let slo = Slo.create ~objective:slo_objective () in
  Slo.observe slo ~now_us:0.0 ~latency_us:100.0 ~ok:true;
  let log = Event_log.create () in
  (* nine fast runs and one 100x outlier: the tail analysis covers
     exactly the outlier *)
  for _ = 1 to 9 do
    Event_log.observe log (event ~elapsed_us:100.0 ())
  done;
  Event_log.observe log (event ~elapsed_us:10_000.0 ());
  (* quiet: healthy slo, no cache or profiling wired *)
  let v = Watchdog.evaluate ~now_us ~slo ~log () in
  Alcotest.(check bool) "quiet" true (v.Watchdog.state = Slo.Ok);
  Alcotest.(check bool) "nothing firing" false
    (List.exists (fun (s : Watchdog.signal) -> s.Watchdog.firing)
       v.Watchdog.signals);
  Alcotest.(check int) "tail covers the outlier" 1 v.Watchdog.tail_records;
  (* the cache signal compares the ring's runs with the lifetime rate *)
  let log = Event_log.create ~capacity:8 () in
  let mw = cached_session log in
  let evaluate () =
    Watchdog.evaluate ~now_us ~slo ~log
      ~cache:(Middleware.plan_cache_stats mw) ()
  in
  let hot = List.hd distinct_shapes in
  for _ = 1 to 24 do
    ignore (Middleware.query mw hot)
  done;
  let v = evaluate () in
  Alcotest.(check bool) "steady hits quiet" false
    (signal v "cache_hit_rate").Watchdog.firing;
  Alcotest.(check bool) "still ok" true (v.Watchdog.state = Slo.Ok);
  (* eight misses fill the ring: its rate 0.00 against 23/32 lifetime *)
  List.iter (fun sql -> ignore (Middleware.query mw (sql ^ " WHERE PosID > 0")))
    distinct_shapes;
  let v = evaluate () in
  Alcotest.(check bool) "cache firing" true
    (signal v "cache_hit_rate").Watchdog.firing;
  Alcotest.(check bool) "lifted to warning" true
    (v.Watchdog.state = Slo.Warning);
  Alcotest.(check bool) "a second look agrees" true (evaluate () = v);
  (* hits on the hot shape refill the ring and clear it *)
  for _ = 1 to 8 do
    ignore (Middleware.query mw hot)
  done;
  let v = evaluate () in
  Alcotest.(check bool) "cache cleared" false
    (signal v "cache_hit_rate").Watchdog.firing;
  Alcotest.(check bool) "ok after recovery" true (v.Watchdog.state = Slo.Ok);
  let s = Json.to_string (Watchdog.verdict_to_json v) in
  check_infix "json state" "\"state\":" s;
  check_infix "json signals" "\"signal\":\"slo_burn\"" s;
  check_infix "json tail" "\"tail_records\":" s;
  Histogram.reset query_us

(* The q_error signal needs evidence: the serve smoke's 5 samples of
   TAGGR^M at mean q 7.67 stay quiet, the same mean over the minimum
   count fires. *)
let test_watchdog_q_error_samples () =
  let slo = Slo.create ~objective:slo_objective () in
  let log = Event_log.create () in
  let feedback = Tango_profile.Feedback.create () in
  let taggr =
    {
      Tango_profile.Analyze.operator = "TAGGR^M"; depth = 0; fingerprint = "f";
      est_rows = 1.0; act_rows = 1; est_bytes = 1.0; act_bytes = 1.0;
      est_us = 1.0; act_us = 7.67; est_self_us = 1.0; act_self_us = 7.67;
      est_pages = 0.0; act_pages = 0; est_roundtrips = 0.0; act_roundtrips = 0;
      q_rows = 1.0; q_cost = 7.67; q_self = 7.67;
    }
  in
  let record n =
    for _ = 1 to n do
      Tango_profile.Feedback.record feedback
        {
          Tango_profile.Analyze.records = [ taggr ]; fingerprint = "f";
          mean_q_rows = 1.0; mean_q_cost = 7.67; max_q_rows = 1.0;
          max_q_cost = 7.67; total_est_us = 1.0; total_act_us = 7.67;
          observations = [];
        }
    done
  in
  let q_error () =
    signal (Watchdog.evaluate ~now_us:1e6 ~slo ~log ~feedback ()) "q_error"
  in
  record 5;
  let s = q_error () in
  Alcotest.(check bool) "5 samples: quiet" false s.Watchdog.firing;
  check_infix "count reported" "over 5 samples" s.Watchdog.detail;
  record (Watchdog.q_error_min_samples - 5);
  let s = q_error () in
  Alcotest.(check bool) "minimum count: firing" true s.Watchdog.firing;
  let v = Watchdog.evaluate ~now_us:1e6 ~slo ~log ~feedback () in
  Alcotest.(check bool) "lifted to warning" true (v.Watchdog.state = Slo.Warning)

(* ---------------- attribution over a sharded topology ---------------- *)

let test_sharded_attribution_conservation () =
  Histogram.reset query_us;
  let topo =
    Uis.load_sharded ~scale:0.003 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()
  in
  let config = Middleware.Config.(default |> with_tracing true) in
  let mw = Middleware.connect_topology ~config topo in
  let log = Event_log.create () in
  Middleware.set_query_observer mw (Some (Event_log.observe log));
  let sql =
    "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID"
  in
  for _ = 1 to 12 do
    ignore (Middleware.query mw sql)
  done;
  Middleware.set_query_observer mw None;
  let events =
    List.map (fun (r : Event_log.record) -> r.Event_log.event)
      (Event_log.recent log)
  in
  Alcotest.(check int) "every run kept" 12 (List.length events);
  let run_of (ev : Middleware.query_event) =
    match ev.Middleware.run with
    | Some r -> r
    | None -> Alcotest.fail "record of a failed run"
  in
  let phase_sum ev =
    let r = run_of ev in
    let b = Middleware.breakdown r in
    r.Middleware.parse_us +. r.Middleware.optimize_us
    +. r.Middleware.translate_us +. b.Middleware.mw_exec_us
    +. b.Middleware.transfer_us +. b.Middleware.gather_wait_us
  in
  List.iter
    (fun ev ->
      let r = run_of ev in
      let b = Middleware.breakdown r in
      (* POSITION is range-partitioned, so the scan crosses both shards *)
      Alcotest.(check bool) "touches both shards" true
        (List.mem_assoc "shard0" r.Middleware.backends
        && List.mem_assoc "shard1" r.Middleware.backends);
      (* the roll-up phases are exactly the per-backend sums *)
      let sum f =
        List.fold_left (fun acc (_, l) -> acc +. f l) 0.0 r.Middleware.backends
      in
      Alcotest.(check (float 1e-6)) "transfer rolls up"
        b.Middleware.transfer_us
        (sum (fun (l : Middleware.backend_breakdown) -> l.Middleware.us));
      Alcotest.(check (float 1e-6)) "gather-wait rolls up"
        b.Middleware.gather_wait_us
        (sum (fun (l : Middleware.backend_breakdown) -> l.Middleware.wait_us)))
    events;
  (* conservation: the six phases partition the wall time — mw-exec is
     derived as the remainder of execute, so the sum only falls short by
     pipeline overhead outside the measured spans *)
  let sums = List.fold_left (fun acc ev -> acc +. phase_sum ev) 0.0 events in
  let walls =
    List.fold_left
      (fun acc (ev : Middleware.query_event) -> acc +. ev.Middleware.elapsed_us)
      0.0 events
  in
  let ratio = sums /. walls in
  Alcotest.(check bool)
    (Printf.sprintf "phases sum ~ wall (ratio %.3f)" ratio)
    true
    (ratio > 0.5 && ratio <= 1.001);
  (* the watchdog's tail analysis names a backend and a phase *)
  let slo = Slo.create ~objective:slo_objective () in
  Slo.observe slo ~now_us:0.0 ~latency_us:100.0 ~ok:true;
  let v = Watchdog.evaluate ~now_us:1e6 ~slo ~log () in
  (match v.Watchdog.dominant_backend with
  | Some (name, share) ->
      Alcotest.(check bool) "dominant backend is a shard" true
        (name = "shard0" || name = "shard1");
      Alcotest.(check bool) "share in (0,1]" true
        (share > 0.0 && share <= 1.0)
  | None -> Alcotest.fail "no dominant backend");
  Alcotest.(check bool) "dominant phase named" true
    (v.Watchdog.dominant_phase <> None);
  Alcotest.(check bool) "tail non-empty" true (v.Watchdog.tail_records >= 1);
  Histogram.reset query_us

(* ---------------- http ---------------- *)

(* Run one request through Http.handle_connection over a socketpair:
   the request fits in the socket buffer and so does the response, so a
   single thread can play both sides. *)
let roundtrip ?(handler = fun (_ : Http.request) -> Http.response "hi\n") raw =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with _ -> ());
      try Unix.close server with _ -> ())
    (fun () ->
      let b = Bytes.of_string raw in
      ignore (Unix.write client b 0 (Bytes.length b));
      Unix.shutdown client Unix.SHUTDOWN_SEND;
      Http.handle_connection server handler;
      Unix.shutdown server Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read client chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let test_http_parse_and_respond () =
  let seen = ref None in
  let handler (req : Http.request) =
    seen := Some req;
    Http.response ("path=" ^ req.Http.path ^ "\n")
  in
  let out =
    roundtrip ~handler
      "GET /queries?n=5&q=a%20b+c HTTP/1.1\r\nHost: x\r\nX-Tag: v\r\n\r\n"
  in
  check_infix "status line" "HTTP/1.1 200 OK" out;
  check_infix "connection close" "Connection: close" out;
  check_infix "body" "path=/queries" out;
  match !seen with
  | None -> Alcotest.fail "handler not invoked"
  | Some req ->
      Alcotest.(check string) "method" "GET" req.Http.meth;
      Alcotest.(check (option string)) "query n" (Some "5")
        (List.assoc_opt "n" req.Http.query);
      Alcotest.(check (option string)) "percent+plus decoding" (Some "a b c")
        (List.assoc_opt "q" req.Http.query);
      Alcotest.(check (option string)) "header lowercased" (Some "v")
        (List.assoc_opt "x-tag" req.Http.headers)

let test_http_post_body () =
  let handler (req : Http.request) =
    Http.response ~status:200 ("got:" ^ req.Http.body)
  in
  let body = "VALIDTIME SELECT 1" in
  let raw =
    Printf.sprintf "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  check_infix "body delivered" "got:VALIDTIME SELECT 1"
    (roundtrip ~handler raw)

let test_http_errors () =
  check_infix "malformed request line" "HTTP/1.1 400"
    (roundtrip "NONSENSE\r\n\r\n");
  check_infix "handler exception is a 500" "HTTP/1.1 500"
    (roundtrip ~handler:(fun _ -> failwith "boom") "GET / HTTP/1.1\r\n\r\n");
  check_infix "truncated body is a 400" "HTTP/1.1 400"
    (roundtrip "POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
  let get_with headers = "GET / HTTP/1.1\r\n" ^ headers ^ "\r\n" in
  check_infix "100 headers are served" "HTTP/1.1 200"
    (roundtrip (get_with (String.concat "" (List.init 100 (fun _ -> "a:1\r\n")))));
  check_infix "10,000 headers are a 400" "HTTP/1.1 400"
    (roundtrip
       (get_with (String.concat "" (List.init 10_000 (fun _ -> "a:1\r\n")))));
  check_infix "a 20 KB header line is a 400" "HTTP/1.1 400"
    (roundtrip (get_with ("a: " ^ String.make 20_000 'x' ^ "\r\n")))

(* a real accept loop over a loopback socket, exercised from a forked
   client process (the server runs in this process) *)
let test_http_live_socket () =
  let sock = Http.listen ~port:0 () in
  let port = Http.bound_port sock in
  let requests = 3 in
  match Unix.fork () with
  | 0 ->
      (* child: play HTTP client, then exit without alcotest teardown *)
      let ok = ref true in
      (try
         for _ = 1 to requests do
           let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
           Unix.connect fd
             (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           let raw = "GET /healthz HTTP/1.1\r\n\r\n" in
           let b = Bytes.of_string raw in
           ignore (Unix.write fd b 0 (Bytes.length b));
           let buf = Buffer.create 128 in
           let chunk = Bytes.create 1024 in
           (try
              let rec drain () =
                let n = Unix.read fd chunk 0 (Bytes.length chunk) in
                if n > 0 then begin
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
                end
              in
              drain ()
            with _ -> ());
           Unix.close fd;
           if not (is_infix ~affix:"HTTP/1.1 200 OK" (Buffer.contents buf))
           then ok := false
         done
       with _ -> ok := false);
      Unix._exit (if !ok then 0 else 1)
  | pid ->
      Http.accept_loop ~max_requests:requests sock (fun _ ->
          Http.response "ok\n");
      Unix.close sock;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "client saw 200s" true (status = Unix.WEXITED 0)

(* A client that connects and sends nothing must not stall the
   sequential accept loop: the server answers it 408 after its receive
   timeout and then serves the next connection.  The forked client
   guards every read with a timeout one second past the server's, so a
   server without the timeout fails the test instead of hanging it. *)
let test_http_idle_client () =
  let sock = Http.listen ~port:0 () in
  let port = Http.bound_port sock in
  let guard_s = 3.0 in
  match Unix.fork () with
  | 0 ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO guard_s;
        fd
      in
      let drain fd =
        let buf = Buffer.create 128 in
        let chunk = Bytes.create 1024 in
        (try
           let rec go () =
             let n = Unix.read fd chunk 0 (Bytes.length chunk) in
             if n > 0 then begin
               Buffer.add_subbytes buf chunk 0 n;
               go ()
             end
           in
           go ()
         with _ -> ());
        Buffer.contents buf
      in
      let ok =
        try
          let silent = connect () in
          let fd = connect () in
          let raw = Bytes.of_string "GET /healthz?plain=1 HTTP/1.1\r\n\r\n" in
          ignore (Unix.write fd raw 0 (Bytes.length raw));
          let t0 = Unix.gettimeofday () in
          let answer = drain fd in
          let waited = Unix.gettimeofday () -. t0 in
          let silent_answer = drain silent in
          is_infix ~affix:"HTTP/1.1 200 OK" answer
          && waited < guard_s
          && is_infix ~affix:"HTTP/1.1 408" silent_answer
        with _ -> false
      in
      Unix._exit (if ok then 0 else 1)
  | pid ->
      Http.accept_loop ~max_requests:2 sock (fun _ -> Http.response "ok\n");
      Unix.close sock;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "second client served despite a silent one" true
        (status = Unix.WEXITED 0)

(* ---------------- endpoints over a live middleware ---------------- *)

let make_endpoints ?log ?slo () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.003 db;
  let config =
    Middleware.Config.(
      default |> with_roundtrip_spin 0 |> with_tracing true
      |> with_profiling true)
  in
  let mw = Middleware.connect ~config db in
  Endpoints.create ?log ?slo mw

let get ep path =
  Endpoints.handler ep
    { Http.meth = "GET"; path; query = []; headers = []; body = "" }

let post ep path body =
  Endpoints.handler ep
    { Http.meth = "POST"; path; query = []; headers = []; body }

let counter_sample body name =
  (* the un-labelled sample line "NAME <int>" of a family *)
  let v = ref None in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
          v :=
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> ())
    (String.split_on_char '\n' body);
  !v

let get_q ep path query headers =
  Endpoints.handler ep
    { Http.meth = "GET"; path; query; headers; body = "" }

(* The labelled sample "NAME{backend="<name>"} <int>" of a family. *)
let backend_sample body family backend =
  counter_sample body
    (Printf.sprintf "%s{backend=\"%s\"}" family backend)

let test_endpoints_backend_exposition () =
  (* every tango_backend_* sample is its backend's own meter, and the
     root operator's round trips are the run's sum over the backends *)
  let topo =
    Uis.load_sharded ~scale:0.003 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()
  in
  let mw = Middleware.connect_topology topo in
  let log = Event_log.create () in
  let ep = Endpoints.create ~log mw in
  let backends = Tango_dbms.Topology.backends topo in
  let total_roundtrips () =
    List.fold_left (fun acc b -> acc + Tango_dbms.Backend.roundtrips b) 0
      backends
  in
  List.iter
    (fun (name, sql) ->
      let rt0 = total_roundtrips () in
      let resp = post ep "/query" sql in
      Alcotest.(check int) (name ^ " ok") 200 resp.Http.status;
      let root =
        match (List.hd (Event_log.recent ~n:1 log))
                .Event_log.event.Middleware.run with
        | Some r -> r.Middleware.exec
        | None -> Alcotest.fail (name ^ ": no run recorded")
      in
      Alcotest.(check int) (name ^ ": root round trips")
        (total_roundtrips () - rt0) root.Exec_plan.roundtrips)
    Queries.workload;
  let body = (get ep "/metrics").Http.body in
  List.iter
    (fun b ->
      let name = Tango_dbms.Backend.name b in
      List.iter
        (fun (family, meter) ->
          Alcotest.(check (option int)) (family ^ " " ^ name)
            (Some (meter b)) (backend_sample body family name))
        Tango_dbms.Backend.
          [
            ("tango_backend_roundtrips", roundtrips);
            ("tango_backend_tuples_shipped", tuples_shipped);
            ("tango_backend_bytes_shipped", bytes_shipped);
            ("tango_backend_queries", queries);
            ("tango_backend_bulk_loads", bulk_loads);
          ])
    backends;
  Alcotest.(check bool) "both shards shipped" true
    (List.for_all (fun b -> Tango_dbms.Backend.tuples_shipped b > 0) backends)

let test_endpoints_end_to_end () =
  Counter.reset queries_total;
  Counter.reset query_errors;
  Histogram.reset query_us;
  let log = Event_log.create ~capacity:64 () in
  let ep = make_endpoints ~log () in
  Alcotest.(check int) "healthz" 200 (get ep "/healthz").Http.status;
  check_infix "healthz json" "\"shards\":"
    (get ep "/healthz").Http.body;
  check_infix "healthz build identity" "\"ocaml_version\":"
    (get ep "/healthz").Http.body;
  check_infix "healthz git describe" "\"git\":" (get ep "/healthz").Http.body;
  Alcotest.(check string) "healthz plain for probes" "ok\n"
    (get_q ep "/healthz" [ ("plain", "1") ] []).Http.body;
  (* drive >= 100 queries through POST /query, one of them invalid *)
  let sql = "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID" in
  for _ = 1 to 100 do
    let resp = post ep "/query" sql in
    Alcotest.(check int) "query ok" 200 resp.Http.status;
    check_infix "result json" "\"rows\":" resp.Http.body
  done;
  let bad = post ep "/query" "SELECT FROM WHERE" in
  Alcotest.(check int) "bad sql is a 400" 400 bad.Http.status;
  check_infix "error json" "\"error\":" bad.Http.body;
  Alcotest.(check int) "empty body is a 400" 400
    (post ep "/query" "  ").Http.status;
  (* /metrics reflects exactly the observed runs, with latency buckets *)
  let metrics = get ep "/metrics" in
  Alcotest.(check int) "metrics ok" 200 metrics.Http.status;
  Alcotest.(check string) "content type" Prometheus.content_type
    metrics.Http.content_type;
  Alcotest.(check (option int)) "queries counted" (Some 101)
    (counter_sample metrics.Http.body "tango_monitor_queries");
  Alcotest.(check (option int)) "errors counted" (Some 1)
    (counter_sample metrics.Http.body "tango_monitor_query_errors");
  check_infix "latency buckets"
    "tango_monitor_query_us_bucket{le=\"+Inf\"} 101" metrics.Http.body;
  check_infix "slo gauges" "tango_monitor_slo_state" metrics.Http.body;
  check_infix "boundary meters too" "tango_backend_roundtrips{backend=\""
    metrics.Http.body;
  (* the telemetry families: build identity and GC/alloc attribution *)
  check_infix "build info gauge" "tango_build_info{ocaml=" metrics.Http.body;
  check_infix "heap gauges" "tango_gc_heap_words" metrics.Http.body;
  check_infix "allocation attribution counters" "tango_alloc_mw_exec_bytes"
    metrics.Http.body;
  (* one exposition format: an OpenMetrics Accept header still gets the
     0.0.4 text, with no OpenMetrics terminator *)
  let om =
    get_q ep "/metrics" []
      [ ("accept", "application/openmetrics-text; version=1.0.0") ]
  in
  Alcotest.(check string) "0.0.4 content type whatever the Accept"
    Prometheus.content_type om.Http.content_type;
  Alcotest.(check bool) "no # EOF" false (is_infix ~affix:"# EOF" om.Http.body);
  (* /queries returns the log, newest first *)
  let queries = get ep "/queries" in
  Alcotest.(check int) "queries ok" 200 queries.Http.status;
  check_infix "log has the statement" "VALIDTIME SELECT" queries.Http.body;
  check_infix "failures recorded" "\"error\":\"" queries.Http.body;
  Alcotest.(check int) "log saw every run" 101
    (Event_log.seen log);
  (* /queries/<seq> drill-down: full record, phases, grafted trace *)
  let kept_record =
    List.find
      (fun (r : Event_log.record) -> r.Event_log.event.Middleware.error = None)
      (Event_log.recent log)
  in
  let drill =
    get ep (Printf.sprintf "/queries/%d" kept_record.Event_log.seq)
  in
  Alcotest.(check int) "drill-down ok" 200 drill.Http.status;
  check_infix "phase breakdown" "\"phases\":" drill.Http.body;
  check_infix "per-phase allocation" "\"mw_exec_alloc_bytes\":" drill.Http.body;
  check_infix "whole-run gc deltas" "\"gc\":" drill.Http.body;
  check_infix "per-backend breakdown" "\"backends\":" drill.Http.body;
  check_infix "grafted trace" "\"traceEvents\":" drill.Http.body;
  Alcotest.(check int) "non-numeric seq" 400
    (get ep "/queries/abc").Http.status;
  Alcotest.(check int) "unknown seq" 404
    (get ep "/queries/999999").Http.status;
  (* /debug/watchdog correlates the drill-down signals *)
  let wd = get ep "/debug/watchdog" in
  Alcotest.(check int) "watchdog ok" 200 wd.Http.status;
  check_infix "watchdog state" "\"state\":" wd.Http.body;
  check_infix "watchdog signals" "\"signal\":\"slo_burn\"" wd.Http.body;
  check_infix "watchdog tail" "\"tail_records\":" wd.Http.body;
  (* the lock-contention profile is gone from both route arms *)
  Alcotest.(check int) "no contention endpoint" 404
    (get ep "/debug/contention").Http.status;
  Alcotest.(check int) "no contention endpoint for POST either" 404
    (post ep "/debug/contention" "").Http.status;
  (* the SLO verdict is on /metrics and /debug/watchdog, and each run's
     trace on /queries/<seq>: /slo and /trace are gone *)
  Alcotest.(check int) "no /slo" 404 (get ep "/slo").Http.status;
  Alcotest.(check int) "no /trace" 404 (get ep "/trace").Http.status;
  Alcotest.(check int) "unknown path" 404 (get ep "/nope").Http.status;
  Alcotest.(check int) "wrong method" 405 (post ep "/metrics" "").Http.status

(* The two HTTP renderings of one traced 2-shard query — the [POST
   /query] response and the [GET /queries/<seq>] drill-down — agree with
   the query's record (the report with its result cut to the row count)
   on rows, optimize_us, execute_us, fingerprint and cache class. *)
let test_http_renderings_agree () =
  Histogram.reset query_us;
  let topo =
    Uis.load_sharded ~scale:0.003 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()
  in
  let config =
    Middleware.Config.(default |> with_tracing true |> with_plan_cache true)
  in
  let log = Event_log.create () in
  let ep = Endpoints.create ~log (Middleware.connect_topology ~config topo) in
  let posted =
    post ep "/query"
      "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID"
  in
  Alcotest.(check int) "query ok" 200 posted.Http.status;
  let seq, run =
    match Event_log.recent ~n:1 log with
    | [ { Event_log.seq; event = { Middleware.run = Some run; _ }; _ } ] ->
        (seq, run)
    | _ -> Alcotest.fail "the query left no record"
  in
  Alcotest.(check bool) "ran over both shards" true
    (List.length run.Middleware.backends = 2 && run.Middleware.trace <> None);
  let drill = get ep (Printf.sprintf "/queries/%d" seq) in
  Alcotest.(check int) "drill-down ok" 200 drill.Http.status;
  let fields what body =
    match Json.parse body with
    | Ok (Json.Obj fs) -> (what, fs)
    | _ -> Alcotest.failf "%s: not a JSON object" what
  in
  let number = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> Float.nan
  in
  let cache_class =
    match run.Middleware.cache with
    | Some c -> c.Middleware.cache_class
    | None -> Alcotest.fail "no cache outcome"
  in
  List.iter
    (fun (what, fs) ->
      let say s = what ^ ": " ^ s in
      let field k =
        match List.assoc_opt k fs with
        | Some v -> v
        | None -> Alcotest.failf "%s has no %S" what k
      in
      Alcotest.(check bool) (say "rows") true
        (field "rows" = Json.Int run.Middleware.result);
      Alcotest.(check (float 0.0)) (say "optimize_us")
        run.Middleware.optimize_us (number (field "optimize_us"));
      Alcotest.(check (float 0.0)) (say "execute_us")
        run.Middleware.execute_us (number (field "execute_us"));
      Alcotest.(check bool) (say "fingerprint") true
        (field "fingerprint"
        = Json.String (Tango_volcano.Physical.fingerprint run.Middleware.physical));
      Alcotest.(check bool) (say "cache class") true
        (field "cache" = Json.String cache_class))
    [
      fields "POST /query" posted.Http.body;
      fields "GET /queries/<seq>" drill.Http.body;
    ];
  Histogram.reset query_us

let test_endpoints_slo_degrades () =
  (* a synthetic 1us latency objective: every real query is "slow", so
     sustained traffic drives the verdict to critical *)
  let slo =
    Slo.create
      ~objective:{ slo_objective with Slo.latency_us = 1.0 }
      ()
  in
  let ep = make_endpoints ~slo () in
  for _ = 1 to 10 do
    ignore (post ep "/query" "VALIDTIME SELECT PosID FROM POSITION")
  done;
  let v =
    Slo.evaluate (Endpoints.slo ep) ~now_us:(Tango_obs.now_us ())
  in
  Alcotest.(check bool) "degraded under slow traffic" true
    (v.Slo.state = Slo.Critical);
  check_infix "state gauge" "\ntango_monitor_slo_state 2\n"
    (get ep "/metrics").Http.body;
  check_infix "watchdog state" "\"state\":\"critical\""
    (get ep "/debug/watchdog").Http.body

(* The families /metrics exposes after the serve-smoke sequence (healthz,
   five raw POSTs, one JSON POST with a parameter, /queries?n=1) over a
   2-shard session configured as [tango_cli serve] configures it.
   Families the tests themselves register ([tango_test_*]) are left out.
   Adding or dropping a family changes this list. *)
let serve_families =
  [ "tango_alloc_bytes"; "tango_alloc_mw_exec_bytes";
    "tango_alloc_optimize_bytes"; "tango_alloc_parse_bytes";
    "tango_alloc_transfer_bytes"; "tango_alloc_translate_bytes";
    "tango_backend_bulk_loads"; "tango_backend_bytes_shipped";
    "tango_backend_queries"; "tango_backend_roundtrips";
    "tango_backend_tuples_shipped"; "tango_build_info";
    "tango_cache_evictions"; "tango_cache_exact_hits"; "tango_cache_hits";
    "tango_cache_invalidations"; "tango_cache_misses";
    "tango_cache_template_hits"; "tango_dbms_queries";
    "tango_dbms_rows_returned"; "tango_gc_compactions";
    "tango_gc_heap_words"; "tango_gc_major_collections";
    "tango_gc_minor_collections"; "tango_gc_promoted_words";
    "tango_gc_top_heap_words"; "tango_monitor_queries";
    "tango_monitor_query_errors"; "tango_monitor_query_us";
    "tango_monitor_slo_error_burn_long";
    "tango_monitor_slo_error_burn_short";
    "tango_monitor_slo_latency_burn_long";
    "tango_monitor_slo_latency_burn_short"; "tango_monitor_slo_state";
    "tango_profile_cost_refits"; "tango_profile_plan_regressions";
    "tango_storage_page_reads"; "tango_storage_pool_hits";
    "tango_storage_pool_misses"; "tango_volcano_plans_considered";
    "tango_volcano_rule_probes"; "tango_volcano_rules_fired" ]

let test_metrics_families () =
  let topo =
    Uis.load_sharded ~scale:0.003 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()
  in
  let config =
    Middleware.Config.(
      default |> with_tracing true |> with_profiling true
      |> with_plan_cache true)
  in
  let ep = Endpoints.create (Middleware.connect_topology ~config topo) in
  Alcotest.(check int) "healthz" 200 (get ep "/healthz").Http.status;
  for _ = 1 to 5 do
    Alcotest.(check int) "raw post" 200
      (post ep "/query"
         "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID")
        .Http.status
  done;
  Alcotest.(check int) "json post" 200
    (post ep "/query"
       "{\"sql\":\"VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE \
        PayRate > $1\",\"params\":[10]}")
      .Http.status;
  Alcotest.(check int) "queries" 200
    (get_q ep "/queries" [ ("n", "1") ] []).Http.status;
  let families =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; _ ]
          when not (String.starts_with ~prefix:"tango_test_" name) ->
            Some name
        | _ -> None)
      (String.split_on_char '\n' (get ep "/metrics").Http.body)
  in
  Alcotest.(check (list string)) "families" serve_families
    (List.sort compare families)

(* A GET changes nothing: after the hit rate drops, two reads of
   /debug/watchdog in a row give the same body, and both fire. *)
let test_watchdog_read_only () =
  let log = Event_log.create ~capacity:8 () in
  let mw = cached_session log in
  Middleware.set_query_observer mw None;
  let ep = Endpoints.create ~log mw in
  let hot = List.hd distinct_shapes in
  for _ = 1 to 24 do
    ignore (post ep "/query" hot)
  done;
  List.iter
    (fun sql -> ignore (post ep "/query" (sql ^ " WHERE PosID > 0")))
    distinct_shapes;
  let first = (get ep "/debug/watchdog").Http.body in
  let second = (get ep "/debug/watchdog").Http.body in
  Alcotest.(check string) "same body twice" first second;
  let fires body =
    let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None in
    match Json.parse body with
    | Ok doc -> (
        match field "signals" doc with
        | Some (Json.List signals) ->
            List.exists
              (fun sg ->
                field "signal" sg = Some (Json.String "cache_hit_rate")
                && field "firing" sg = Some (Json.Bool true))
              signals
        | _ -> false)
    | Error _ -> false
  in
  Alcotest.(check bool) "first fires cache_hit_rate" true (fires first);
  Alcotest.(check bool) "second fires cache_hit_rate" true (fires second)

let () =
  Alcotest.run "tango_monitor"
    [
      ( "obs buckets",
        [
          Alcotest.test_case "fixed exponential buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "bucket quantiles" `Quick test_bucket_quantile;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "golden exposition text" `Quick
            test_prometheus_golden;
          Alcotest.test_case "names, gauges, labels" `Quick
            test_prometheus_names_and_gauges;
          Alcotest.test_case "runtime gauges" `Quick
            test_prometheus_runtime_gauges;
          Alcotest.test_case "le labels parse back to their bounds" `Quick
            test_prometheus_le_labels;
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "event layout" `Quick test_chrome_trace_layout;
          Alcotest.test_case "json envelope" `Quick test_chrome_trace_json;
          Alcotest.test_case "backend lanes" `Quick test_chrome_backend_lanes;
        ] );
      ( "event log",
        [
          Alcotest.test_case "ring eviction" `Quick test_event_log_eviction;
          Alcotest.test_case "every event stored" `Quick
            test_event_log_stores_every_event;
          Alcotest.test_case "aggregate metrics" `Quick test_event_log_metrics;
          Alcotest.test_case "json" `Quick test_event_log_json;
        ] );
      ( "slo",
        [
          Alcotest.test_case "latency transitions" `Quick test_slo_transitions;
          Alcotest.test_case "availability" `Quick test_slo_availability;
          Alcotest.test_case "json and gauges" `Quick test_slo_json_and_gauges;
          Alcotest.test_case "long window holds every query" `Quick
            test_slo_long_window;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "signal transitions" `Quick
            test_watchdog_transitions;
          Alcotest.test_case "q_error needs samples" `Quick
            test_watchdog_q_error_samples;
          Alcotest.test_case "sharded attribution conservation" `Quick
            test_sharded_attribution_conservation;
          Alcotest.test_case "reading changes nothing" `Quick
            test_watchdog_read_only;
        ] );
      ( "http",
        [
          Alcotest.test_case "parse and respond" `Quick
            test_http_parse_and_respond;
          Alcotest.test_case "post body" `Quick test_http_post_body;
          Alcotest.test_case "errors" `Quick test_http_errors;
          Alcotest.test_case "live socket" `Quick test_http_live_socket;
          Alcotest.test_case "idle client times out" `Quick
            test_http_idle_client;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "100 queries end to end" `Quick
            test_endpoints_end_to_end;
          Alcotest.test_case "slo degrades under slow traffic" `Quick
            test_endpoints_slo_degrades;
          Alcotest.test_case "per-backend exposition" `Quick
            test_endpoints_backend_exposition;
          Alcotest.test_case "http renderings agree" `Quick
            test_http_renderings_agree;
          Alcotest.test_case "metrics families" `Quick test_metrics_families;
        ] );
    ]
