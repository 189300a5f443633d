(* Plan-cache tests: the Plan_cache LRU structure itself, and its
   integration into the middleware pipeline — hits on identical
   resubmission, misses on literal changes, and invalidation on ANALYZE,
   DDL and cost-factor changes. *)

open Tango_rel
open Tango_core
open Tango_workload
open Tango_cache

(* ---- the cache structure ---- *)

(* A cache holding one entry under [sql]: [hits other] looks [other] up. *)
let hits_after ~sql other =
  let c = Plan_cache.create () in
  Plan_cache.add c ~sql 1;
  Plan_cache.find c ~sql:other = Some 1

let test_normalize () =
  Alcotest.(check bool) "whitespace collapsed" true
    (hits_after ~sql:"SELECT A FROM T" "  SELECT\n  A\tFROM   T ");
  Alcotest.(check bool) "literals preserved" false
    (hits_after ~sql:"SELECT 'a  b' FROM T" "SELECT 'a b' FROM T")

let test_key_literal_sensitive () =
  let q v = "SELECT A FROM T WHERE A < " ^ v in
  Alcotest.(check bool) "same text, same key" true (hits_after ~sql:(q "7") (q "7"));
  Alcotest.(check bool) "literal change, different key" false
    (hits_after ~sql:(q "7") (q "8"));
  Alcotest.(check bool) "whitespace-insensitive" true
    (hits_after ~sql:"SELECT A\n FROM  T" " SELECT A FROM T")

(* Keyword case must not split cache entries; literal case must.  The
   normalizer folds case outside single-quoted strings only. *)
let test_keyword_case_insensitive () =
  let c = Plan_cache.create () in
  Plan_cache.add c ~sql:"SELECT 'Ab' FROM T" 1;
  Alcotest.(check (option int)) "keyword-case variant hits" (Some 1)
    (Plan_cache.find c ~sql:"select 'Ab' from t");
  Alcotest.(check (option int)) "literal-case change misses" None
    (Plan_cache.find c ~sql:"select 'ab' from t")

let test_hit_kinds () =
  let c = Plan_cache.create () in
  Plan_cache.add c ~sql:"SELECT A FROM T WHERE A < $1" 1;
  ignore
    (Plan_cache.find ~kind:Plan_cache.Template c
       ~sql:"SELECT A FROM T WHERE A < $1");
  ignore (Plan_cache.find c ~sql:"SELECT A FROM T WHERE A < $1");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "template hit classified" 1 s.Plan_cache.template_hits;
  Alcotest.(check int) "exact hit classified" 1 s.Plan_cache.exact_hits;
  Alcotest.(check int) "total hits" 2 s.Plan_cache.hits

let test_find_add () =
  let c = Plan_cache.create ~capacity:4 () in
  Alcotest.(check (option int)) "empty" None (Plan_cache.find c ~sql:"Q1");
  Plan_cache.add c ~sql:"Q1" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Plan_cache.find c ~sql:"Q1");
  Alcotest.(check (option int)) "whitespace variant hits" (Some 1)
    (Plan_cache.find c ~sql:"  Q1\n");
  Plan_cache.add c ~sql:"Q1" 2;
  Alcotest.(check (option int)) "replaced" (Some 2) (Plan_cache.find c ~sql:"Q1");
  Alcotest.(check int) "one entry" 1 (Plan_cache.length c);
  let s = Plan_cache.stats c in
  Alcotest.(check int) "hits" 3 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses

let test_lru_eviction () =
  let c = Plan_cache.create ~capacity:2 () in
  Plan_cache.add c ~sql:"Q1" 1;
  Plan_cache.add c ~sql:"Q2" 2;
  (* touch Q1 so Q2 is the least recently used *)
  ignore (Plan_cache.find c ~sql:"Q1");
  Plan_cache.add c ~sql:"Q3" 3;
  Alcotest.(check int) "at capacity" 2 (Plan_cache.length c);
  Alcotest.(check (option int)) "LRU evicted" None (Plan_cache.find c ~sql:"Q2");
  Alcotest.(check (option int)) "recently used kept" (Some 1)
    (Plan_cache.find c ~sql:"Q1");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Plan_cache.find c ~sql:"Q3");
  Alcotest.(check int) "one eviction" 1 (Plan_cache.stats c).Plan_cache.evictions

let test_invalidate_all () =
  let c = Plan_cache.create () in
  Plan_cache.add c ~sql:"Q1" 1;
  Plan_cache.add c ~sql:"Q2" 2;
  Plan_cache.invalidate_all ~reason:"analyze" c;
  Alcotest.(check int) "flushed" 0 (Plan_cache.length c);
  Alcotest.(check (option int)) "gone" None (Plan_cache.find c ~sql:"Q1");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "one invalidation" 1 s.Plan_cache.invalidations;
  Alcotest.(check (option string)) "reason recorded" (Some "analyze")
    s.Plan_cache.last_invalidation

(* ---- middleware integration ---- *)

let setup () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let config =
    Middleware.Config.(
      default |> with_roundtrip_spin 0 |> with_plan_cache true)
  in
  let mw = Middleware.connect ~config db in
  (db, mw)

let cache_hit (r : _ Middleware.run) =
  match r.Middleware.cache with
  | Some c -> c.Middleware.cache_class <> "miss"
  | None -> Alcotest.fail "no cache report on a plan_cache session"

let test_hit_on_resubmission () =
  let _db, mw = setup () in
  let r1 = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "first submission misses" false (cache_hit r1);
  let r2 = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "resubmission hits" true (cache_hit r2);
  Alcotest.(check bool) "hit skips optimize" true
    (r2.Middleware.optimize_us = 0.0 && r2.Middleware.optimize_us < r1.Middleware.optimize_us);
  Alcotest.(check bool) "identical result" true
    (Relation.equal_list r1.Middleware.result r2.Middleware.result);
  let s = Middleware.plan_cache_stats mw in
  Alcotest.(check int) "one hit" 1 s.Plan_cache.hits

let cache_class (r : _ Middleware.run) =
  match r.Middleware.cache with
  | Some c -> c.Middleware.cache_class
  | None -> Alcotest.fail "no cache report on a plan_cache session"

(* With auto-parameterization (the default) a literal change no longer
   misses: both spellings normalize to one template, and the second
   submission instantiates the cached generic plan under the new
   binding.  The old literal-keyed behavior is still reachable with
   [with_auto_parameterize false]. *)
let test_template_hit_on_literal_change () =
  let _db, mw = setup () in
  let r1 = Middleware.query mw (Queries.q2_sql ~period_end:"1996-01-01") in
  Alcotest.(check string) "first submission misses" "miss" (cache_class r1);
  let r2 = Middleware.query mw (Queries.q2_sql ~period_end:"1997-01-01") in
  Alcotest.(check string) "changed literal template-hits" "template-hit"
    (cache_class r2);
  Alcotest.(check bool) "template hit skips optimize" true
    (r2.Middleware.optimize_us = 0.0);
  let s = Middleware.plan_cache_stats mw in
  Alcotest.(check int) "classified as template hit" 1 s.Plan_cache.template_hits;
  (* the instantiated plan must answer the new binding, not the cached
     literals: compare against an uncached session *)
  let db2 = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db2;
  let mw2 = Middleware.connect ~roundtrip_spin:0 db2 in
  let expect = Middleware.query mw2 (Queries.q2_sql ~period_end:"1997-01-01") in
  Alcotest.(check bool) "instantiated plan answers the new literals" true
    (Relation.equal_list expect.Middleware.result r2.Middleware.result)

let test_exact_mode_misses_on_literal_change () =
  let _db, mw = setup () in
  Middleware.set_config mw
    (Middleware.Config.with_auto_parameterize false (Middleware.config mw));
  ignore (Middleware.query mw (Queries.q2_sql ~period_end:"1996-01-01"));
  let r = Middleware.query mw (Queries.q2_sql ~period_end:"1997-01-01") in
  Alcotest.(check bool) "changed literal misses" false (cache_hit r);
  let r2 = Middleware.query mw (Queries.q2_sql ~period_end:"1996-01-01") in
  Alcotest.(check bool) "original still cached" true (cache_hit r2);
  Alcotest.(check string) "classified as exact hit" "exact-hit" (cache_class r2)

(* Explicit bind variables: same template text + different bindings =
   one entry, and results match the literal-inlined spelling. *)
let test_query_params () =
  let _db, mw = setup () in
  let sql =
    "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > $1"
  in
  let r1 = Middleware.query_params mw sql [ Value.Int 10 ] in
  Alcotest.(check string) "first binding misses" "miss" (cache_class r1);
  let r2 = Middleware.query_params mw sql [ Value.Int 25 ] in
  Alcotest.(check string) "second binding template-hits" "template-hit"
    (cache_class r2);
  let lit10 =
    Middleware.query mw
      "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > 10"
  in
  Alcotest.(check bool) "binding 10 = literal 10" true
    (Relation.equal_multiset r1.Middleware.result lit10.Middleware.result);
  let lit25 =
    Middleware.query mw
      "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > 25"
  in
  Alcotest.(check bool) "binding 25 = literal 25" true
    (Relation.equal_multiset r2.Middleware.result lit25.Middleware.result);
  Alcotest.(check bool) "bindings select different rows" true
    (Relation.cardinality r1.Middleware.result
    > Relation.cardinality r2.Middleware.result);
  (* '?' positional markers are the same thing *)
  let r3 =
    Middleware.query_params mw
      "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > ?"
      [ Value.Int 10 ]
  in
  Alcotest.(check bool) "? binding matches $1 binding" true
    (Relation.equal_multiset r1.Middleware.result r3.Middleware.result)

(* The run an event-log record holds. *)
let logged_run (r : Tango_monitor.Event_log.record) =
  match r.Tango_monitor.Event_log.event.Middleware.run with
  | Some run -> run
  | None -> Alcotest.fail "record of a failed run"

let test_event_log_records_cache_class () =
  let _db, mw = setup () in
  let log = Tango_monitor.Event_log.create () in
  Middleware.set_query_observer mw (Some (Tango_monitor.Event_log.observe log));
  ignore (Middleware.query mw (Queries.q2_sql ~period_end:"1996-01-01"));
  ignore (Middleware.query mw (Queries.q2_sql ~period_end:"1997-01-01"));
  ignore (Middleware.query mw Queries.q1_sql);
  ignore (Middleware.query mw Queries.q1_sql);
  match List.map logged_run (Tango_monitor.Event_log.recent log) with
  | [ d; c; b; a ] ->
      (* newest first *)
      Alcotest.(check string) "template miss" "miss" (cache_class a);
      Alcotest.(check string) "template hit" "template-hit" (cache_class b);
      Alcotest.(check string) "exact miss" "miss" (cache_class c);
      Alcotest.(check string) "exact hit" "exact-hit" (cache_class d)
  | rs -> Alcotest.failf "expected 4 records, got %d" (List.length rs)

let test_invalidation_on_analyze () =
  let db, mw = setup () in
  ignore (Middleware.query mw Queries.q1_sql);
  (* ANALYZE behind the middleware's back: detected via the schema
     generation at the next lookup *)
  ignore (Tango_dbms.Database.analyze db "POSITION");
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-ANALYZE submission misses" false (cache_hit r);
  Alcotest.(check bool) "cache was flushed" true
    ((Middleware.plan_cache_stats mw).Plan_cache.invalidations > 0);
  (* and the re-planned entry serves hits again *)
  Alcotest.(check bool) "re-cached" true (cache_hit (Middleware.query mw Queries.q1_sql))

(* SQL literal of a stored value, for re-inserting rows. *)
let sql_literal = function
  | Value.Null -> "NULL"
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.6f" f
  | Value.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Value.Date d -> "DATE '" ^ Tango_temporal.Chronon.to_string d ^ "'"

(* A plan made after ANALYZE must use the new statistics: grow POSITION
   8x behind the session's back and ANALYZE it.  Then Query 2, never
   cached, plans, and Query 1, cached, misses and re-plans, each at the
   estimated cost a fresh session gives. *)
let test_replan_after_analyze_reads_fresh_statistics () =
  let db, mw = setup () in
  let q2 = Queries.q2_sql ~period_end:"1996-01-01" in
  let before = (Middleware.query mw Queries.q1_sql).Middleware.estimated_cost_us in
  let rows = Relation.tuples (Tango_dbms.Database.query db "SELECT * FROM POSITION") in
  for _ = 1 to 7 do
    Array.iter
      (fun t ->
        ignore
          (Tango_dbms.Database.execute db
             (Printf.sprintf "INSERT INTO POSITION VALUES (%s)"
                (String.concat ", " (List.map sql_literal (Array.to_list t))))))
      rows
  done;
  ignore (Tango_dbms.Database.analyze db "POSITION");
  let r2 = Middleware.query mw q2 in
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-ANALYZE submission misses" false (cache_hit r);
  Alcotest.(check (option string)) "flushed as ddl" (Some "ddl")
    (Middleware.plan_cache_stats mw).Plan_cache.last_invalidation;
  let fresh sql =
    let config = Middleware.config mw in
    (Middleware.query (Middleware.connect ~config db) sql).Middleware.estimated_cost_us
  in
  let fresh1 = fresh Queries.q1_sql in
  Alcotest.(check bool) "the statistics changed the estimate" true (fresh1 > before);
  Alcotest.(check (float 0.0)) "re-plan = fresh session's estimate" fresh1
    r.Middleware.estimated_cost_us;
  Alcotest.(check (float 0.0)) "new plan = fresh session's estimate" (fresh q2)
    r2.Middleware.estimated_cost_us

(* The partitioned table's statistics merge every shard's catalog, so an
   ANALYZE on a shard that is not the primary stales cached plans too. *)
let test_analyze_on_any_shard_invalidates () =
  let topology = Uis.load_sharded ~scale:0.005 ~roundtrip_spins:[ 0; 0 ] ~shards:2 () in
  let config =
    Middleware.Config.(default |> with_roundtrip_spin 0 |> with_plan_cache true)
  in
  let mw = Middleware.connect_topology ~config topology in
  ignore (Middleware.query mw Queries.q1_sql);
  Alcotest.(check bool) "cached" true (cache_hit (Middleware.query mw Queries.q1_sql));
  let shard1 =
    match Tango_dbms.Topology.find topology "shard1" with
    | Some b -> Option.get (Tango_dbms.Backend.database b)
    | None -> Alcotest.fail "no shard1"
  in
  ignore (Tango_dbms.Database.analyze shard1 "POSITION");
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-ANALYZE submission misses" false (cache_hit r);
  Alcotest.(check (option string)) "flushed as ddl" (Some "ddl")
    (Middleware.plan_cache_stats mw).Plan_cache.last_invalidation

let test_invalidation_on_ddl () =
  let db, mw = setup () in
  ignore (Middleware.query mw Queries.q1_sql);
  Tango_dbms.Database.create_table db "NEWTBL"
    (Schema.make [ ("A", Value.TInt) ]);
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-DDL submission misses" false (cache_hit r)

let test_invalidation_on_factor_change () =
  let _db, mw = setup () in
  ignore (Middleware.query mw Queries.q1_sql);
  let inv0 = (Middleware.plan_cache_stats mw).Plan_cache.invalidations in
  (* adopting new cost factors re-ranks every cached plan *)
  Middleware.adopt_factors mw (Tango_cost.Factors.default ());
  Alcotest.(check bool) "factor adoption invalidates" true
    ((Middleware.plan_cache_stats mw).Plan_cache.invalidations > inv0);
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-adoption submission misses" false (cache_hit r)

(* A cost refit flushes the cache, and the plan chosen under the
   pre-refit factors must not come back: the exact entry is inserted
   before execution, so the flush during that execution removes it. *)
let test_refit_flush_drops_exact_entry () =
  let _db, mw = setup () in
  Middleware.set_config mw
    Middleware.Config.(
      Middleware.config mw |> with_auto_parameterize false
      |> with_adaptive_costs true);
  (* grossly overpriced middleware factors: the first few executions
     misestimate enough to trigger a refit *)
  let f = Tango_cost.Factors.copy (Middleware.factors mw) in
  f.Tango_cost.Factors.p_tm <- f.Tango_cost.Factors.p_tm *. 1000.0;
  f.Tango_cost.Factors.p_sortm <- f.Tango_cost.Factors.p_sortm *. 1000.0;
  f.Tango_cost.Factors.p_taggm1 <- f.Tango_cost.Factors.p_taggm1 *. 1000.0;
  Middleware.adopt_factors mw f;
  let rec until_refit i =
    if i > 30 then Alcotest.fail "no cost refit after 30 queries"
    else
      let sql = Queries.q2_sql ~period_end:(Printf.sprintf "19%02d-01-01" (70 + i)) in
      let before = Tango_obs.Counter.value Tango_profile.Adapt.refits in
      ignore (Middleware.query mw sql);
      if Tango_obs.Counter.value Tango_profile.Adapt.refits > before then sql
      else until_refit (i + 1)
  in
  let sql = until_refit 0 in
  Alcotest.(check (option string)) "the refit flushed the cache"
    (Some "cost-refit")
    (Middleware.plan_cache_stats mw).Plan_cache.last_invalidation;
  Alcotest.(check string) "the refit query's text re-plans" "miss"
    (cache_class (Middleware.query mw sql))

(* Settings that choose plans or their findings flush the cache: the next
   submission re-plans under the new value, and switching verification
   on verifies afresh instead of serving the unverified plan's (empty)
   findings.  The query compares a FLOAT column with a string, which
   verification reports as a warning. *)
let test_config_change_flushes () =
  let _db, mw = setup () in
  Middleware.set_config mw
    Middleware.Config.(Middleware.config mw |> with_auto_parameterize false);
  let sql = "VALIDTIME SELECT PosID FROM POSITION WHERE PayRate > 'abc'" in
  let resubmit_after name change =
    ignore (Middleware.query mw sql);
    Alcotest.(check string) (name ^ ": cached before") "exact-hit"
      (cache_class (Middleware.query mw sql));
    Middleware.set_config mw (change (Middleware.config mw));
    let r = Middleware.query mw sql in
    Alcotest.(check string) (name ^ ": next query misses") "miss"
      (cache_class r);
    r
  in
  ignore
    (resubmit_after "selectivity mode"
       (Middleware.Config.with_selectivity_mode Tango_stats.Selectivity.Naive));
  let r =
    resubmit_after "verification"
      (Middleware.Config.with_verify_plans Middleware.Config.Verify_final)
  in
  Alcotest.(check bool) "fresh findings" true (r.Middleware.diagnostics <> [])

let test_invalidation_on_stats_refresh () =
  let _db, mw = setup () in
  ignore (Middleware.query mw Queries.q1_sql);
  Middleware.refresh_statistics mw;
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "post-refresh submission misses" false (cache_hit r)

let test_disabled_cache_reports_nothing () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.005 db;
  let mw = Middleware.connect ~roundtrip_spin:0 db in
  let r = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "no cache report when disabled" true
    (r.Middleware.cache = None);
  let r2 = Middleware.query mw Queries.q1_sql in
  Alcotest.(check bool) "still none on resubmission" true (r2.Middleware.cache = None)

let test_event_log_distinguishes_hits () =
  let _db, mw = setup () in
  let log = Tango_monitor.Event_log.create () in
  Middleware.set_query_observer mw (Some (Tango_monitor.Event_log.observe log));
  ignore (Middleware.query mw Queries.q1_sql);
  ignore (Middleware.query mw Queries.q1_sql);
  match List.map logged_run (Tango_monitor.Event_log.recent log) with
  | [ hit; miss ] ->
      (* newest first *)
      Alcotest.(check bool) "miss recorded as such" false (cache_hit miss);
      Alcotest.(check bool) "hit recorded as such" true (cache_hit hit);
      Alcotest.(check bool) "miss has an optimize phase" true
        (miss.Middleware.optimize_us > 0.0);
      Alcotest.(check (float 0.0)) "hit skipped optimize" 0.0
        hit.Middleware.optimize_us
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let () =
  Alcotest.run "tango_cache"
    [
      ( "structure",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "literal-sensitive keys" `Quick test_key_literal_sensitive;
          Alcotest.test_case "keyword-case-insensitive keys" `Quick
            test_keyword_case_insensitive;
          Alcotest.test_case "hit kinds" `Quick test_hit_kinds;
          Alcotest.test_case "find/add" `Quick test_find_add;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
        ] );
      ( "middleware",
        [
          Alcotest.test_case "hit on resubmission" `Quick test_hit_on_resubmission;
          Alcotest.test_case "template hit on literal change" `Quick
            test_template_hit_on_literal_change;
          Alcotest.test_case "exact mode misses on literal change" `Quick
            test_exact_mode_misses_on_literal_change;
          Alcotest.test_case "explicit bind variables" `Quick test_query_params;
          Alcotest.test_case "event log records cache class" `Quick
            test_event_log_records_cache_class;
          Alcotest.test_case "invalidation on ANALYZE" `Quick test_invalidation_on_analyze;
          Alcotest.test_case "re-plan reads fresh statistics" `Quick
            test_replan_after_analyze_reads_fresh_statistics;
          Alcotest.test_case "ANALYZE on any shard invalidates" `Quick
            test_analyze_on_any_shard_invalidates;
          Alcotest.test_case "invalidation on DDL" `Quick test_invalidation_on_ddl;
          Alcotest.test_case "config change flushes" `Quick
            test_config_change_flushes;
          Alcotest.test_case "invalidation on factor change" `Quick
            test_invalidation_on_factor_change;
          Alcotest.test_case "refit flush drops the exact entry" `Quick
            test_refit_flush_drops_exact_entry;
          Alcotest.test_case "invalidation on stats refresh" `Quick
            test_invalidation_on_stats_refresh;
          Alcotest.test_case "disabled reports nothing" `Quick
            test_disabled_cache_reports_nothing;
          Alcotest.test_case "event log distinguishes hits" `Quick
            test_event_log_distinguishes_hits;
        ] );
    ]
