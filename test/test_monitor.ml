(* Tests for Tango_monitor — the Prometheus and Chrome-trace exporters,
   the per-query event log (ring eviction, head-based sampling, slow and
   failed overrides), the SLO burn-rate engine, the HTTP server, and the
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

let test_histogram_buckets () =
  let h = Histogram.make "test.monitor_buckets" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 0.5; 1.0; 3.0; 1000.0; 1e9 ];
  (* non-cumulative cells: 0.5 and 1.0 land at bound 1, 3.0 at bound 4,
     1000.0 at bound 1024, 1e9 overflows *)
  let counts = Histogram.bucket_counts h in
  Alcotest.(check int) "cells" (Array.length Histogram.bucket_bounds + 1)
    (Array.length counts);
  Alcotest.(check int) "le 1" 2 counts.(0);
  Alcotest.(check int) "le 2" 0 counts.(1);
  Alcotest.(check int) "le 4" 1 counts.(2);
  Alcotest.(check int) "le 1024" 1 counts.(10);
  Alcotest.(check int) "overflow" 1 counts.(Array.length counts - 1);
  (* cumulative series is monotone and closed by (+Inf, count) *)
  let cum = Histogram.cumulative_buckets h in
  let last_bound, last_count = List.nth cum (List.length cum - 1) in
  Alcotest.(check bool) "closed by +Inf" true (last_bound = infinity);
  Alcotest.(check int) "total at +Inf" 5 last_count;
  ignore
    (List.fold_left
       (fun prev (_, c) ->
         Alcotest.(check bool) "monotone" true (c >= prev);
         c)
       0 cum)

let test_registry_diff_histograms () =
  let h = Histogram.make "test.monitor_diff_hist" in
  Histogram.reset h;
  Histogram.observe h 3.0;
  let before = Registry.snapshot () in
  Histogram.observe h 5.0;
  Histogram.observe h 100.0;
  let after = Registry.snapshot () in
  let d = Registry.diff after before in
  let stats = List.assoc "test.monitor_diff_hist" d.Registry.histograms in
  Alcotest.(check int) "count delta" 2 stats.Registry.count;
  Alcotest.(check (float 1e-9)) "sum delta" 105.0 stats.Registry.sum;
  Alcotest.(check (float 1e-9)) "mean of delta" 52.5 stats.Registry.mean;
  (* bucket deltas: 5.0 -> le 8, 100.0 -> le 128; 3.0 cancelled out *)
  Alcotest.(check int) "le 4 delta" 0 (List.assoc 4.0 stats.Registry.buckets);
  Alcotest.(check int) "le 8 delta" 1 (List.assoc 8.0 stats.Registry.buckets);
  Alcotest.(check int) "le 128 delta" 2
    (List.assoc 128.0 stats.Registry.buckets);
  Alcotest.(check int) "+Inf delta" 2
    (List.assoc infinity stats.Registry.buckets)

(* ---------------- prometheus ---------------- *)

let test_prometheus_golden () =
  (* a synthetic snapshot renders to exactly this exposition text *)
  let snapshot =
    {
      Registry.counters = [ ("client.roundtrips", 42) ];
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
              exemplars = [];
            } );
        ];
    }
  in
  let expected =
    "# TYPE tango_client_roundtrips counter\n\
     tango_client_roundtrips 42\n\
     # TYPE tango_query_us histogram\n\
     tango_query_us_bucket{le=\"1\"} 0\n\
     tango_query_us_bucket{le=\"2\"} 2\n\
     tango_query_us_bucket{le=\"+Inf\"} 3\n\
     tango_query_us_sum 10.5\n\
     tango_query_us_count 3\n"
  in
  Alcotest.(check string) "golden" expected (Prometheus.render snapshot)

let test_prometheus_names_and_gauges () =
  Alcotest.(check string) "sanitized" "tango_client_round_trips_"
    (Prometheus.metric_name "client.round-trips!");
  Alcotest.(check string) "custom namespace" "acme_x_y"
    (Prometheus.metric_name ~namespace:"acme" "x.y");
  Alcotest.(check string) "gauge family"
    "# TYPE tango_monitor_slo_state gauge\ntango_monitor_slo_state 2\n"
    (Prometheus.gauge ~name:"monitor.slo_state" 2.0);
  Alcotest.(check string) "gauge labels"
    "# TYPE tango_up gauge\ntango_up{job=\"a\\\"b\"} 1\n"
    (Prometheus.gauge ~name:"up" ~labels:[ ("job", "a\"b") ] 1.0);
  Alcotest.(check string) "+Inf bound" "+Inf" (Prometheus.le_label infinity)

let test_prometheus_exemplars () =
  (* OpenMetrics mode renders a bucket's exemplar after the sample; the
     default 0.0.4 mode drops it; [# EOF] is the caller's terminator *)
  let ex =
    {
      Histogram.ex_seq = 7;
      ex_trace_id = "deadbeef";
      ex_value = 1.5;
      ex_at_us = 2_500_000.0;
    }
  in
  let snapshot =
    {
      Registry.counters = [];
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
              exemplars = [ (2.0, ex) ];
            } );
        ];
    }
  in
  let expected =
    "# TYPE tango_query_us histogram\n\
     tango_query_us_bucket{le=\"1\"} 0\n\
     tango_query_us_bucket{le=\"2\"} 2 # {seq=\"7\",trace_id=\"deadbeef\"} \
     1.5 2.500000\n\
     tango_query_us_bucket{le=\"+Inf\"} 3\n\
     tango_query_us_sum 10.5\n\
     tango_query_us_count 3\n"
  in
  Alcotest.(check string) "golden openmetrics" expected
    (Prometheus.render ~exemplars:true snapshot);
  Alcotest.(check bool) "plain mode drops exemplars" false
    (is_infix ~affix:"# {seq=" (Prometheus.render snapshot));
  Alcotest.(check string) "eof terminator" "# EOF\n" Prometheus.eof;
  check_infix "negotiated content type" "application/openmetrics-text"
    Prometheus.openmetrics_content_type

let test_prometheus_runtime_gauges () =
  (* publish this domain's counters so the per-domain families appear *)
  Tango_obs.Runtime.touch ();
  let text = Prometheus.runtime_gauges () in
  check_infix "heap words gauge" "# TYPE tango_gc_heap_words gauge" text;
  check_infix "top heap gauge" "tango_gc_top_heap_words" text;
  check_infix "compactions gauge" "tango_gc_compactions" text;
  check_infix "per-domain alloc family"
    "# TYPE tango_gc_domain_alloc_bytes gauge" text;
  check_infix "per-domain label" "tango_gc_domain_alloc_bytes{domain=\"" text;
  check_infix "per-domain minor family" "tango_gc_domain_minor_collections"
    text

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
  let events = Chrome_trace.events ~start_us:1000.0 root in
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
  Alcotest.(check (float 1e-9)) "root at start_us" 1000.0 (ts (by_name "root"));
  Alcotest.(check (float 1e-9)) "first child at parent start" 1000.0
    (ts (by_name "a"));
  Alcotest.(check (float 1e-9)) "sibling laid after" 1040.0 (ts (by_name "b"));
  Alcotest.(check (float 1e-9)) "nested child at b's start" 1040.0
    (ts (by_name "c"));
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
  let s = Chrome_trace.to_string root in
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
   back to back from the lane start *)
let test_chrome_backend_lanes () =
  let events =
    Chrome_trace.backend_lanes ~start_us:100.0
      [ ("s0", 40.0, 10.0); ("s1", 5.0, 0.0) ]
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
    && field "ts" transfer = Json.Float 100.0
    && field "dur" transfer = Json.Float 40.0);
  Alcotest.(check bool) "gather-wait laid after transfer" true
    (field "name" wait = Json.String "gather-wait"
    && field "ts" wait = Json.Float 140.0
    && field "dur" wait = Json.Float 10.0);
  Alcotest.(check bool) "second lane on tid 3" true
    (field "tid" (List.nth events 3) = Json.Int 3);
  (* lanes ride into the trace envelope after the span events *)
  let root = Trace.make ~elapsed_us:10.0 "root" in
  match Chrome_trace.to_json ~backends:[ ("s0", 4.0, 1.0) ] root with
  | Json.Obj kvs -> (
      match List.assoc "traceEvents" kvs with
      | Json.List evs ->
          Alcotest.(check int) "span + lane events" 4 (List.length evs)
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "not an object"

(* ---------------- event log ---------------- *)

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
  Alcotest.(check int) "seen" 6 (Event_log.seen log);
  Alcotest.(check int) "kept counts evictions too" 6 (Event_log.kept log);
  (* newest first, oldest two evicted *)
  Alcotest.(check (list int)) "newest first" [ 5; 4; 3; 2 ] (seqs log);
  Alcotest.(check (list int)) "recent ~n" [ 5; 4 ]
    (List.map (fun r -> r.Event_log.seq) (Event_log.recent ~n:2 log))

let test_event_log_sampling () =
  let log = Event_log.create ~sample_every:3 () in
  for _ = 1 to 8 do
    Event_log.observe log (event ())
  done;
  (* deterministic head sampling by arrival ordinal: 0, 3, 6 *)
  Alcotest.(check (list int)) "every 3rd" [ 6; 3; 0 ] (seqs log);
  List.iter
    (fun r ->
      Alcotest.(check bool) "reason" true (r.Event_log.kept = Event_log.Sampled))
    (Event_log.recent log)

let test_event_log_overrides () =
  let log = Event_log.create ~sample_every:1000 ~slow_keep_us:1000.0 () in
  Event_log.observe log (event ());                       (* seq 0: sampled *)
  Event_log.observe log (event ());                       (* seq 1: dropped *)
  Event_log.observe log (event ~elapsed_us:5000.0 ());    (* seq 2: slow *)
  Event_log.observe log (event ~error:"boom" ());         (* seq 3: failed *)
  Event_log.observe log (event ());                       (* seq 4: dropped *)
  Alcotest.(check (list int)) "kept" [ 3; 2; 0 ] (seqs log);
  let reasons = List.map (fun r -> r.Event_log.kept) (Event_log.recent log) in
  Alcotest.(check bool) "reasons" true
    (reasons = [ Event_log.Failed; Event_log.Slow; Event_log.Sampled ]);
  let failed = List.hd (Event_log.recent ~n:1 log) in
  Alcotest.(check (option string)) "error text" (Some "boom")
    failed.Event_log.event.Middleware.error

let test_event_log_metrics () =
  Counter.reset Event_log.queries_total;
  Counter.reset Event_log.query_errors;
  Counter.reset Event_log.events_kept;
  Counter.reset Event_log.events_sampled_out;
  let log = Event_log.create ~sample_every:2 () in
  for _ = 1 to 4 do
    Event_log.observe log (event ())
  done;
  Event_log.observe log (event ~error:"x" ());
  Alcotest.(check int) "queries" 5 (Counter.value Event_log.queries_total);
  Alcotest.(check int) "errors" 1 (Counter.value Event_log.query_errors);
  Alcotest.(check int) "kept" 3 (Counter.value Event_log.events_kept);
  Alcotest.(check int) "sampled out" 2
    (Counter.value Event_log.events_sampled_out)

let test_event_log_json () =
  let log = Event_log.create () in
  Event_log.observe log (event ~sql:"VALIDTIME SELECT 1" ());
  match Event_log.to_json log with
  | Json.List [ Json.Obj kvs ] ->
      Alcotest.(check bool) "sql" true
        (List.assoc "sql" kvs = Json.String "VALIDTIME SELECT 1");
      Alcotest.(check bool) "kept" true
        (List.assoc "kept" kvs = Json.String "sampled")
  | _ -> Alcotest.fail "expected a one-record JSON array"

let test_event_log_tail_exemplars () =
  Histogram.reset Event_log.query_us;
  let log = Event_log.create ~sample_every:1000 () in
  (* 40 fast queries settle the histogram's idea of the p99... *)
  for _ = 1 to 40 do
    Event_log.observe log (event ~elapsed_us:100.0 ())
  done;
  (* ...then one lands whole latency bands above it: kept as Tail even
     though sampling would have dropped it *)
  Event_log.observe log (event ~elapsed_us:1.0e6 ());
  (match Event_log.find log 40 with
  | Some r ->
      Alcotest.(check bool) "tail reason" true
        (r.Event_log.kept = Event_log.Tail)
  | None -> Alcotest.fail "tail record not kept");
  (* the exemplar on the tail bucket resolves back to that record *)
  let exs = Histogram.exemplar_list Event_log.query_us in
  let _, e = List.find (fun (_, e) -> e.Histogram.ex_value = 1.0e6) exs in
  Alcotest.(check int) "exemplar seq" 40 e.Histogram.ex_seq;
  Alcotest.(check string) "trace id falls back to kind" "query"
    e.Histogram.ex_trace_id;
  Alcotest.(check bool) "resolves through find" true
    (Event_log.find log e.Histogram.ex_seq <> None);
  (* dropped events never leave an exemplar: only seq 0 (sampled) and
     the tail outlier were kept, so only their buckets carry one *)
  Alcotest.(check int) "exemplars only for kept" 2 (List.length exs);
  Histogram.reset Event_log.query_us

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

let test_slo_json_and_gauges () =
  let t = Slo.create ~objective:slo_objective () in
  Slo.observe t ~now_us:0.0 ~latency_us:100.0 ~ok:true;
  let s = Json.to_string (Slo.to_json t ~now_us:1e6) in
  check_infix "state" "\"state\":\"ok\"" s;
  check_infix "windows" "\"short_window\":" s;
  let gauges = Slo.prometheus_gauges (Slo.evaluate t ~now_us:1e6) in
  Alcotest.(check (float 1e-9)) "state gauge" 0.0
    (List.assoc "monitor.slo_state" gauges);
  Alcotest.(check int) "five gauges" 5 (List.length gauges);
  Alcotest.(check bool) "rejects empty budget" true
    (try
       ignore (Slo.create ~objective:{ slo_objective with Slo.latency_goal = 1.0 } ());
       false
     with Invalid_argument _ -> true)

(* ---------------- watchdog ---------------- *)

let cache_stats ?(replans = 0) ?(max_replans = 0) ~hits ~misses () =
  {
    Tango_cache.Plan_cache.hits;
    template_hits = 0;
    exact_hits = hits;
    misses;
    evictions = 0;
    invalidations = 0;
    replans;
    max_replans;
    last_invalidation = None;
  }

let signal (v : Watchdog.verdict) name =
  List.find (fun (s : Watchdog.signal) -> s.Watchdog.name = name)
    v.Watchdog.signals

(* A single entry accumulating sensitivity-guard replans is flagged as a
   parameter-sensitive plan; scattered one-off replans are not. *)
let test_watchdog_parameter_sensitivity () =
  Histogram.reset Event_log.query_us;
  let slo = Slo.create ~objective:slo_objective () in
  Slo.observe slo ~now_us:0.0 ~latency_us:100.0 ~ok:true;
  let log = Event_log.create () in
  Event_log.observe log (event ~elapsed_us:100.0 ());
  let wd = Watchdog.create ~generation:0 () in
  let eval cache = Watchdog.evaluate wd ~now_us:1e6 ~slo ~log ~generation:0 ?cache () in
  let v = eval None in
  let s = signal v "parameter_sensitive_plan" in
  Alcotest.(check bool) "silent without a cache" false s.Watchdog.firing;
  let v =
    eval (Some (cache_stats ~hits:9 ~misses:1 ~replans:2 ~max_replans:1 ()))
  in
  Alcotest.(check bool) "one region plan per entry is normal" false
    (signal v "parameter_sensitive_plan").Watchdog.firing;
  let v =
    eval (Some (cache_stats ~hits:9 ~misses:1 ~replans:3 ~max_replans:2 ()))
  in
  let s = signal v "parameter_sensitive_plan" in
  Alcotest.(check bool) "an entry accumulating replans fires" true
    s.Watchdog.firing;
  Alcotest.(check bool) "detail carries the evidence" true
    (s.Watchdog.detail = "3 replans total; worst entry holds 2 region plans");
  Alcotest.(check bool) "firing signal raises the verdict" true
    (v.Watchdog.state <> Slo.Ok);
  (* the threshold is two region plans on one entry, however many
     replans are scattered over the others *)
  Alcotest.(check bool) "one region plan per entry, many entries" false
    (signal
       (eval (Some (cache_stats ~hits:9 ~misses:1 ~replans:50 ~max_replans:1 ())))
       "parameter_sensitive_plan")
      .Watchdog.firing;
  Alcotest.(check bool) "exactly two region plans on one entry" true
    (signal
       (eval (Some (cache_stats ~hits:9 ~misses:1 ~replans:2 ~max_replans:2 ())))
       "parameter_sensitive_plan")
      .Watchdog.firing

let test_watchdog_transitions () =
  Histogram.reset Event_log.query_us;
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
  let wd = Watchdog.create ~generation:5 () in
  (* quiet: same generation, healthy slo, no cache or profiling wired *)
  let v = Watchdog.evaluate wd ~now_us ~slo ~log ~generation:5 () in
  Alcotest.(check bool) "quiet" true (v.Watchdog.state = Slo.Ok);
  Alcotest.(check bool) "nothing firing" false
    (List.exists (fun (s : Watchdog.signal) -> s.Watchdog.firing)
       v.Watchdog.signals);
  Alcotest.(check int) "tail covers the outlier" 1 v.Watchdog.tail_records;
  (* a topology bump fires once and lifts the state to warning... *)
  let v = Watchdog.evaluate wd ~now_us ~slo ~log ~generation:6 () in
  Alcotest.(check bool) "topology firing" true
    (signal v "topology_generation").Watchdog.firing;
  Alcotest.(check bool) "lifted to warning" true
    (v.Watchdog.state = Slo.Warning);
  (* ...and clears at the next check of the same generation *)
  let v =
    Watchdog.evaluate wd ~now_us ~slo ~log
      ~cache:(cache_stats ~hits:90 ~misses:10 ())
      ~generation:6 ()
  in
  Alcotest.(check bool) "topology cleared" false
    (signal v "topology_generation").Watchdog.firing;
  Alcotest.(check bool) "back to ok" true (v.Watchdog.state = Slo.Ok);
  (* the hit rate collapsing since the previous check fires the cache
     signal: 0.90 -> 0.45 against a 0.2 threshold *)
  let v =
    Watchdog.evaluate wd ~now_us ~slo ~log
      ~cache:(cache_stats ~hits:90 ~misses:110 ())
      ~generation:6 ()
  in
  Alcotest.(check bool) "cache firing" true
    (signal v "cache_hit_rate").Watchdog.firing;
  Alcotest.(check bool) "warning again" true (v.Watchdog.state = Slo.Warning);
  (* a steady rate clears it *)
  let v =
    Watchdog.evaluate wd ~now_us ~slo ~log
      ~cache:(cache_stats ~hits:90 ~misses:110 ())
      ~generation:6 ()
  in
  Alcotest.(check bool) "cache cleared" false
    (signal v "cache_hit_rate").Watchdog.firing;
  Alcotest.(check bool) "ok after recovery" true (v.Watchdog.state = Slo.Ok);
  let s = Json.to_string (Watchdog.verdict_to_json v) in
  check_infix "json state" "\"state\":" s;
  check_infix "json signals" "\"signal\":\"slo_burn\"" s;
  check_infix "json tail" "\"tail_records\":" s;
  Histogram.reset Event_log.query_us

(* ---------------- attribution over a sharded topology ---------------- *)

let test_sharded_attribution_conservation () =
  Histogram.reset Event_log.query_us;
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
  let generation = Tango_dbms.Topology.generation topo in
  let wd = Watchdog.create ~generation () in
  let v = Watchdog.evaluate wd ~now_us:1e6 ~slo ~log ~generation () in
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
  Histogram.reset Event_log.query_us

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

let test_endpoints_end_to_end () =
  Counter.reset Event_log.queries_total;
  Counter.reset Event_log.query_errors;
  Histogram.reset Event_log.query_us;
  let ep = make_endpoints ~log:(Event_log.create ~capacity:64 ()) () in
  Alcotest.(check int) "healthz" 200 (get ep "/healthz").Http.status;
  check_infix "healthz json" "\"topology_generation\":"
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
  check_infix "middleware counters too" "tango_client_roundtrips"
    metrics.Http.body;
  (* the telemetry families: build identity and GC/alloc attribution
     (whole-run counters plus per-domain gauges) *)
  check_infix "build info gauge" "tango_build_info{ocaml=" metrics.Http.body;
  check_infix "heap gauges" "tango_gc_heap_words" metrics.Http.body;
  check_infix "per-domain gc gauges" "tango_gc_domain_alloc_bytes{domain="
    metrics.Http.body;
  check_infix "allocation attribution counters" "tango_alloc_mw_exec_bytes"
    metrics.Http.body;
  (* openmetrics negotiation: exemplars appear and # EOF closes the
     exposition; both the Accept header and ?format=openmetrics work *)
  let om =
    get_q ep "/metrics" []
      [ ("accept", "application/openmetrics-text; version=1.0.0") ]
  in
  Alcotest.(check string) "openmetrics content type"
    Prometheus.openmetrics_content_type om.Http.content_type;
  check_infix "exemplar syntax" "# {seq=\"" om.Http.body;
  Alcotest.(check string) "eof is the last line" "# EOF\n"
    (String.sub om.Http.body (String.length om.Http.body - 6) 6);
  Alcotest.(check string) "format param negotiates too"
    Prometheus.openmetrics_content_type
    (get_q ep "/metrics" [ ("format", "openmetrics") ] []).Http.content_type;
  Alcotest.(check string) "plain scrape unchanged" Prometheus.content_type
    (get ep "/metrics").Http.content_type;
  (* /queries returns the sampled log, newest first *)
  let queries = get ep "/queries" in
  Alcotest.(check int) "queries ok" 200 queries.Http.status;
  check_infix "log has the statement" "VALIDTIME SELECT" queries.Http.body;
  check_infix "failures kept" "\"kept\":\"failed\"" queries.Http.body;
  Alcotest.(check int) "log saw every run" 101
    (Event_log.seen (Endpoints.event_log ep));
  (* /queries/<seq> drill-down: full record, phases, grafted trace *)
  let kept_record =
    List.find
      (fun (r : Event_log.record) -> r.Event_log.event.Middleware.error = None)
      (Event_log.recent (Endpoints.event_log ep))
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
  check_infix "watchdog names the sensitivity signal"
    "\"signal\":\"parameter_sensitive_plan\"" wd.Http.body;
  check_infix "watchdog tail" "\"tail_records\":" wd.Http.body;
  (* the lock-contention profile is gone from both route arms *)
  Alcotest.(check int) "no contention endpoint" 404
    (get ep "/debug/contention").Http.status;
  Alcotest.(check int) "no contention endpoint for POST either" 404
    (post ep "/debug/contention" "").Http.status;
  (* /slo, /trace, dispatch edges *)
  Alcotest.(check int) "slo ok" 200 (get ep "/slo").Http.status;
  check_infix "slo verdict" "\"state\":" (get ep "/slo").Http.body;
  Alcotest.(check int) "trace present" 200 (get ep "/trace").Http.status;
  check_infix "chrome envelope" "traceEvents" (get ep "/trace").Http.body;
  Alcotest.(check int) "unknown path" 404 (get ep "/nope").Http.status;
  Alcotest.(check int) "wrong method" 405 (post ep "/metrics" "").Http.status

(* The two HTTP renderings of one traced 2-shard query — the [POST
   /query] response and the [GET /queries/<seq>] drill-down — agree with
   the query's record (the report with its result cut to the row count)
   on rows, optimize_us, execute_us, fingerprint and cache class. *)
let test_http_renderings_agree () =
  Histogram.reset Event_log.query_us;
  let topo =
    Uis.load_sharded ~scale:0.003 ~roundtrip_spins:[ 0; 0 ] ~shards:2 ()
  in
  let config =
    Middleware.Config.(default |> with_tracing true |> with_plan_cache true)
  in
  let ep = Endpoints.create (Middleware.connect_topology ~config topo) in
  let posted =
    post ep "/query"
      "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID"
  in
  Alcotest.(check int) "query ok" 200 posted.Http.status;
  let seq, run =
    match Event_log.recent ~n:1 (Endpoints.event_log ep) with
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
  Histogram.reset Event_log.query_us

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
  check_infix "reported over http" "\"state\":\"critical\""
    (get ep "/slo").Http.body

let () =
  Alcotest.run "tango_monitor"
    [
      ( "obs buckets",
        [
          Alcotest.test_case "fixed exponential buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "registry diff of histograms" `Quick
            test_registry_diff_histograms;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "golden exposition text" `Quick
            test_prometheus_golden;
          Alcotest.test_case "names, gauges, labels" `Quick
            test_prometheus_names_and_gauges;
          Alcotest.test_case "runtime gauges" `Quick
            test_prometheus_runtime_gauges;
          Alcotest.test_case "openmetrics exemplars" `Quick
            test_prometheus_exemplars;
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
          Alcotest.test_case "head sampling" `Quick test_event_log_sampling;
          Alcotest.test_case "slow/failed overrides" `Quick
            test_event_log_overrides;
          Alcotest.test_case "aggregate metrics" `Quick test_event_log_metrics;
          Alcotest.test_case "json" `Quick test_event_log_json;
          Alcotest.test_case "tail keep and exemplars" `Quick
            test_event_log_tail_exemplars;
        ] );
      ( "slo",
        [
          Alcotest.test_case "latency transitions" `Quick test_slo_transitions;
          Alcotest.test_case "availability" `Quick test_slo_availability;
          Alcotest.test_case "json and gauges" `Quick test_slo_json_and_gauges;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "signal transitions" `Quick
            test_watchdog_transitions;
          Alcotest.test_case "parameter sensitivity signal" `Quick
            test_watchdog_parameter_sensitivity;
          Alcotest.test_case "sharded attribution conservation" `Quick
            test_sharded_attribution_conservation;
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
          Alcotest.test_case "http renderings agree" `Quick
            test_http_renderings_agree;
        ] );
    ]
