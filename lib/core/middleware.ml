(** TANGO — the temporal middleware session (paper Figure 1).

    A session owns a backend connection to the conventional DBMS and drives
    the full pipeline:

    + parse temporal SQL into the initial plan (all processing in the DBMS,
      one [T^M] on top) — {!Tango_tsql.Compile};
    + collect statistics from the DBMS catalog — {!Tango_stats.Collector};
    + calibrate cost factors — {!Tango_cost.Calibrate};
    + optimize: transformation rules + cost-based physical search —
      {!Tango_volcano.Search};
    + translate DBMS-resident parts to SQL and execute the plan through the
      iterator engine — {!Exec_plan};
    + optionally adapt cost factors from measured per-algorithm times
      (the paper's performance-feedback loop) — {!Tango_profile.Adapt}. *)

open Tango_rel
open Tango_algebra
open Tango_stats
open Tango_cost
open Tango_volcano
open Tango_dbms

(* ------------------------------------------------------------------ *)
(* Session configuration                                                 *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type verify_mode = Verify_off | Verify_final | Verify_per_rule

  type t = {
    row_prefetch : int;
    roundtrip_spin : int;
    selectivity_mode : Selectivity.mode;
    histograms : bool;
    share_transfers : bool;
    tracing : bool;
    profiling : bool;
    adaptive_costs : bool;
    verify_plans : verify_mode;
    plan_cache : bool;
    auto_parameterize : bool;
  }

  let default =
    {
      row_prefetch = Backend.default_row_prefetch;
      roundtrip_spin = Backend.default_roundtrip_spin;
      selectivity_mode = Selectivity.Temporal;
      histograms = true;
      share_transfers = true;
      tracing = false;
      profiling = false;
      adaptive_costs = false;
      verify_plans = Verify_off;
      plan_cache = false;
      auto_parameterize = true;
    }

  let with_roundtrip_spin n c = { c with roundtrip_spin = n }
  let with_selectivity_mode m c = { c with selectivity_mode = m }
  let with_histograms b c = { c with histograms = b }
  let with_transfer_sharing b c = { c with share_transfers = b }
  let with_tracing b c = { c with tracing = b }

  let with_profiling b c = { c with profiling = b }

  let with_adaptive_costs b c =
    (* adaptation consumes profiling records, so it implies them *)
    { c with adaptive_costs = b; profiling = b || c.profiling }

  let with_verify_plans m c = { c with verify_plans = m }

  let with_plan_cache b c = { c with plan_cache = b }

  let with_auto_parameterize b c = { c with auto_parameterize = b }
end

module Parameterize = Tango_sql.Parameterize

(* What the plan cache stores for a query text: everything needed to skip
   parse + optimize on a hit.  Translation (Exec_plan.of_physical) still
   runs per execution — temp-table names must be fresh.  A template
   entry (keyed on parameterized text) holds the generic plan, which is
   instantiated under each binding. *)
type cache_entry = {
  cached_physical : Physical.plan;
  cached_classes : int;
  cached_elements : int;
  cached_diagnostics : Tango_verify.Diag.t list;
  cached_versions : (string * int option list) list;
      (* each table the plan reads, with its version on every backend,
         read before the search *)
  cached_fp : string;  (* query fingerprint, for the sentinel *)
}

(* Plan-cache outcome attached to a report (only for {!query} with the
   cache enabled); the session totals are {!plan_cache_stats}. *)
type cache_report = {
  cache_class : string;  (** ["template-hit"] | ["exact-hit"] | ["miss"] *)
}

(* Per-backend latency attribution, as collected by the transfer/gather
   layers during one execution ({!Tango_xxl.Attribution}). *)
type backend_breakdown = Tango_xxl.Attribution.breakdown = {
  rows : int;
  bytes : int;
  us : float;
  wait_us : float;
  alloc_bytes : int;
}

(* The per-query record: each phase's wall time and allocation, measured
   once, beside the plan and what it executed.  Everything else a
   consumer reports is derived from it by {!breakdown}.  ['result] is the
   result relation in a {!report} and its cardinality in an observed
   {!query_event}, so monitoring never holds on to a relation. *)
type 'result run = {
  result : 'result;
  physical : Physical.plan;
  exec : Exec_plan.node;
  classes : int;
  elements : int;
  estimated_cost_us : float;
  trace : Tango_obs.Trace.span option;
  analysis : Tango_profile.Analyze.report option;
  diagnostics : Tango_verify.Diag.t list;
  cache : cache_report option;
  parse_us : float;
  optimize_us : float;
  translate_us : float;
  execute_us : float;
  parse_alloc_bytes : int;
  optimize_alloc_bytes : int;
  translate_alloc_bytes : int;
  execute_alloc_bytes : int;
  backends : (string * backend_breakdown) list;
      (** per-backend latency attribution, first-touched first *)
}

type report = Relation.t run

(* What a run's record implies, computed only by {!breakdown}. *)
type breakdown = {
  transfer_us : float;  (** Σ backend transfer time *)
  gather_wait_us : float;  (** Σ gather-merge blocked time *)
  mw_exec_us : float;  (** execute − transfer − gather-wait, clamped *)
  transfer_alloc_bytes : int;  (** Σ backend boundary allocation *)
  mw_exec_alloc_bytes : int;  (** execute alloc − transfer alloc, clamped *)
  mw_operators : int;
  transfers : int;
  tm_rows : int;
  td_rows : int;
  q_rows : float option;
  q_cost : float option;
  verify_errors : int;
  verify_warnings : int;
}

(* The boundary totals come from the per-backend lanes and the
   middleware share is the rest of the execute phase, so parse +
   optimize + translate + mw-exec + transfer + gather-wait ≈ the run's
   wall time.  The transfer counts walk the executed tree: rows entering
   across TRANSFER^M, and rows materialized back into the DBMS across
   TRANSFER^D (transfer dependencies). *)
let breakdown (r : _ run) : breakdown =
  let t = Tango_xxl.Attribution.totals r.backends in
  let mw_operators = ref 0
  and transfers = ref 0
  and tm_rows = ref 0
  and td_rows = ref 0 in
  Exec_plan.iter
    (fun n ->
      incr mw_operators;
      match n.Exec_plan.kind with
      | Exec_plan.Transfer_m { deps; _ } | Exec_plan.Scatter { deps; _ } ->
          incr transfers;
          tm_rows := !tm_rows + n.Exec_plan.out_tuples;
          List.iter
            (fun (d : Exec_plan.dep) ->
              td_rows := !td_rows + d.Exec_plan.source.Exec_plan.out_tuples)
            deps
      | _ -> ())
    r.exec;
  let verify_errors = Tango_verify.Diag.count_errors r.diagnostics in
  {
    transfer_us = t.us;
    gather_wait_us = t.wait_us;
    mw_exec_us = Float.max 0.0 (r.execute_us -. t.us -. t.wait_us);
    transfer_alloc_bytes = t.alloc_bytes;
    mw_exec_alloc_bytes = max 0 (r.execute_alloc_bytes - t.alloc_bytes);
    mw_operators = !mw_operators;
    transfers = !transfers;
    tm_rows = !tm_rows;
    td_rows = !td_rows;
    q_rows =
      Option.map (fun a -> a.Tango_profile.Analyze.mean_q_rows) r.analysis;
    q_cost =
      Option.map (fun a -> a.Tango_profile.Analyze.mean_q_cost) r.analysis;
    verify_errors;
    verify_warnings = List.length r.diagnostics - verify_errors;
  }

(* One top-level pipeline run ({!query} / {!run_plan} / {!run_fixed}),
   successful or not — the feed for monitoring (event logs, SLO engines). *)
type query_event = {
  kind : string;  (** ["query"] | ["run_plan"] | ["run_fixed"] *)
  sql : string option;  (** the temporal SQL text, for {!query} *)
  started_us : float;  (** wall clock ({!Tango_obs.now_us}) at entry *)
  elapsed_us : float;  (** total pipeline wall time, parse to result *)
  run : int run option;
      (** the run's record, its result cut to the row count; [None] when
          the pipeline raised *)
  error : string option;  (** the exception text when the pipeline raised *)
  gc : Tango_obs.Runtime.delta;
      (** whole-pipeline GC/allocation delta on the serving domain *)
}

type t = {
  topology : Topology.t;
  factors : Factors.t;
  backend_factors : Tango_profile.Backend_factors.t;
  plan_cache : cache_entry Tango_cache.Plan_cache.t;
  mutable config : Config.t;
  mutable last_diagnostics : Tango_verify.Diag.t list;
  mutable query_observer : (query_event -> unit) option;
  profile : Tango_profile.Feedback.t;
  sentinel : Tango_profile.Sentinel.t;
}

(** Attach a session to an existing topology ({!Topology.single} for the
    classical one-DBMS architecture, or a sharded one from the loaders). *)
let connect_topology ?(config = Config.default) (topology : Topology.t) : t =
  let factors = Factors.default () in
  {
    topology;
    factors;
    backend_factors =
      Tango_profile.Backend_factors.create ~base:(fun () -> factors);
    plan_cache = Tango_cache.Plan_cache.create ();
    config;
    last_diagnostics = [];
    query_observer = None;
    profile = Tango_profile.Feedback.create ();
    sentinel = Tango_profile.Sentinel.create ();
  }

let connect ?(config = Config.default) ?row_prefetch ?roundtrip_spin
    (db : Database.t) : t =
  let config =
    {
      config with
      Config.row_prefetch =
        Option.value ~default:config.Config.row_prefetch row_prefetch;
      roundtrip_spin =
        Option.value ~default:config.Config.roundtrip_spin roundtrip_spin;
    }
  in
  connect_topology ~config
    (Topology.single
       (Backend.in_process ~row_prefetch:config.Config.row_prefetch
          ~roundtrip_spin:config.Config.roundtrip_spin db))

let topology t = t.topology
let primary t = Topology.primary t.topology

let database t = Option.get (Backend.database (primary t))

let factors t = t.factors
let config t = t.config
let last_diagnostics t = t.last_diagnostics
let profile_store t = t.profile
let set_query_observer t obs = t.query_observer <- obs

(* Plan-cache helpers.  Any change that can alter which plan is best for a
   cached query flushes the whole cache (coarse, always sound). *)
let invalidate_plan_cache t ~reason =
  if Tango_cache.Plan_cache.length t.plan_cache > 0 then
    Tango_cache.Plan_cache.invalidate_all ~reason t.plan_cache

let plan_cache_stats t = Tango_cache.Plan_cache.stats t.plan_cache

let set_config t (c : Config.t) =
  if c.Config.histograms <> t.config.Config.histograms then
    invalidate_plan_cache t ~reason:"config-histograms";
  (* cached plans and their findings were chosen under these settings *)
  if c.Config.selectivity_mode <> t.config.Config.selectivity_mode then
    invalidate_plan_cache t ~reason:"config-selectivity-mode";
  if c.Config.verify_plans <> t.config.Config.verify_plans then
    invalidate_plan_cache t ~reason:"config-verify-plans";
  (* row_prefetch / roundtrip_spin do apply to the live backends — but
     only when changed: backends of a sharded topology may carry their own
     per-shard settings the session config knows nothing about *)
  if c.Config.row_prefetch <> t.config.Config.row_prefetch then
    List.iter
      (fun b -> Backend.set_row_prefetch b c.Config.row_prefetch)
      (Topology.backends t.topology);
  if c.Config.roundtrip_spin <> t.config.Config.roundtrip_spin then
    List.iter
      (fun b -> Backend.set_roundtrip_spin b c.Config.roundtrip_spin)
      (Topology.backends t.topology);
  t.config <- c

(** Run cost-factor calibration against every connected backend; each
    backend's measured factors are stored under its name (the cost-factor
    handle), and the primary's are adopted as the session's globals. *)
let calibrate ?sizes t =
  let prim = primary t in
  List.iter
    (fun b ->
      let measured = Calibrate.run ?sizes b in
      Tango_profile.Backend_factors.set t.backend_factors (Backend.name b)
        measured;
      if b == prim then Factors.assign t.factors measured)
    (Topology.backends t.topology);
  invalidate_plan_cache t ~reason:"calibrate"

(** Adopt previously calibrated factors (e.g. shared across sessions against
    the same DBMS installation). *)
let adopt_factors t (f : Factors.t) =
  Factors.assign t.factors f;
  invalidate_plan_cache t ~reason:"adopt-factors"

let refresh_statistics (_ : t) = ()

let databases t = List.filter_map Backend.database (Topology.backends t.topology)

(* The Statistics Collector hook used for optimization.  For the
   partitioned table the per-shard catalogs are merged into whole-table
   statistics ({!Rel_stats.merge}); everything else is replicated, so the
   primary's catalog is authoritative. *)
let base_stats t ~qualifier table : Rel_stats.t =
  let histograms = if t.config.Config.histograms then `All else `None in
  let collect db = Collector.collect ~histograms db ~qualifier table in
  match Topology.partitioned_table t.topology with
  | Some (ptable, _)
    when Topology.is_sharded t.topology && String.equal ptable table -> (
      match databases t with
      | [] -> collect (database t)
      | dbs -> Rel_stats.merge (List.map collect dbs))
  | _ -> collect (database t)

let stats_env t : Derive.env =
  Derive.env ~mode:t.config.Config.selectivity_mode
    (fun ~qualifier table -> base_stats t ~qualifier table)

let schema_lookup t name = Database.table_schema (database t) name

(* The optimizer's view of the topology: shard names and numeric bounds
   on the partition column.  [None] for a classical single-DBMS session. *)
let partition_layout t : Partition.layout option =
  match Topology.partitioned_table t.topology with
  | Some (table, column) when Topology.is_sharded t.topology ->
      Some
        {
          Partition.table;
          column;
          shards =
            List.map
              (fun (b, (bounds : Topology.bounds)) ->
                {
                  Partition.shard_name = Backend.name b;
                  lo = Option.map float_of_int bounds.Topology.lo;
                  hi = Option.map float_of_int bounds.Topology.hi;
                })
              (Topology.shards t.topology);
        }
  | _ -> None

let shard_factors t name = Tango_profile.Backend_factors.get t.backend_factors name

(* Log source for the middleware pipeline; enable with
   [Logs.Src.set_level Middleware.log_src (Some Logs.Debug)]. *)
let log_src = Logs.Src.create "tango.middleware" ~doc:"TANGO middleware pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Optimization                                                          *)
(* ------------------------------------------------------------------ *)

(* Verify a chosen plan against the query's required root properties,
   per the session's [verify_plans] mode. *)
let verify_final t ~(required_order : Order.t) (physical : Physical.plan) :
    Tango_verify.Diag.t list =
  match t.config.Config.verify_plans with
  | Config.Verify_off -> []
  | Config.Verify_final | Config.Verify_per_rule ->
      Tango_verify.Check.check_physical ~stats_env:(stats_env t)
        ?partition:(partition_layout t)
        ~required:{ Physical.loc = Op.Mw; order = required_order }
        physical

(* Log a verification's errors and keep its findings for
   {!last_diagnostics}. *)
let record_diagnostics t diags =
  List.iter
    (fun d ->
      if Tango_verify.Diag.is_error d then
        Log.warn (fun m -> m "verify: %s" (Tango_verify.Diag.to_string d)))
    diags;
  t.last_diagnostics <- diags

(* Partition pruning: drop the shards a plan's period predicates
   exclude. *)
let prune t (plan : Physical.plan) : Physical.plan =
  match partition_layout t with
  | Some layout -> Physical.prune_scatter layout plan
  | None -> plan

(** Optimize an initial algebra plan (which must already carry its top
    [T^M]).  When the session's [verify_plans] mode is on, the final plan
    (and, per-rule, every saturation step) is verified; findings land in
    {!last_diagnostics}. *)
let optimize t ?(required_order : Order.t = []) (initial : Op.t) :
    Search.result =
  let gate =
    match t.config.Config.verify_plans with
    | Config.Verify_per_rule -> Some (Tango_verify.Gate.create ())
    | Config.Verify_off | Config.Verify_final -> None
  in
  let rule_observer =
    Option.map
      (fun g ~rule m c -> Tango_verify.Gate.observer g ~rule m c)
      gate
  in
  let r =
    Search.optimize ~factors:t.factors ~stats_env:(stats_env t)
      ~required_order ?rule_observer ?partition:(partition_layout t)
      ~shard_factors:(shard_factors t) initial
  in
  let r = { r with Search.plan = Option.map (prune t) r.Search.plan } in
  record_diagnostics t
    ((match gate with Some g -> Tango_verify.Gate.diagnostics g | None -> [])
    @
    match r.Search.plan with
    | Some physical -> verify_final t ~required_order physical
    | None -> []);
  r

(* ------------------------------------------------------------------ *)
(* Execution                                                             *)
(* ------------------------------------------------------------------ *)

let now_us () = Tango_obs.now_us ()

(* Durations below are monotonic-clock differences; [now_us] (wall) is
   kept only for the [started_us] timestamp observers export. *)
let mono_us () = Tango_obs.mono_us ()

(* Run [f] as one measured pipeline phase under the trace span [name]:
   its result, wall time (µs) and allocated bytes. *)
let phase name f =
  let t0 = mono_us () in
  let g = Tango_obs.Runtime.point () in
  let x = Tango_obs.Trace.span name f in
  let alloc =
    (Tango_obs.Runtime.delta_since g).Tango_obs.Runtime.alloc_bytes
  in
  (x, mono_us () -. t0, alloc)

(* Process-wide allocation/GC accounting, fed once per top-level run.
   Dotted names render as [tango_alloc_*] / [tango_gc_*] families. *)
let c_alloc_bytes = Tango_obs.Counter.make "alloc.bytes"
let c_gc_minor = Tango_obs.Counter.make "gc.minor_collections"
let c_gc_major = Tango_obs.Counter.make "gc.major_collections"
let c_gc_promoted = Tango_obs.Counter.make "gc.promoted_words"
let c_alloc_parse = Tango_obs.Counter.make "alloc.parse_bytes"
let c_alloc_optimize = Tango_obs.Counter.make "alloc.optimize_bytes"
let c_alloc_translate = Tango_obs.Counter.make "alloc.translate_bytes"
let c_alloc_transfer = Tango_obs.Counter.make "alloc.transfer_bytes"
let c_alloc_mw_exec = Tango_obs.Counter.make "alloc.mw_exec_bytes"

exception No_plan of string

(* Feed the process-wide allocation/GC counters with one completed run's
   resource usage. *)
let account_resources (run : _ run option) (gc : Tango_obs.Runtime.delta) =
  Tango_obs.Counter.add c_alloc_bytes gc.Tango_obs.Runtime.alloc_bytes;
  Tango_obs.Counter.add c_gc_minor gc.Tango_obs.Runtime.minor_collections;
  Tango_obs.Counter.add c_gc_major gc.Tango_obs.Runtime.major_collections;
  Tango_obs.Counter.add c_gc_promoted gc.Tango_obs.Runtime.promoted_words;
  Option.iter
    (fun r ->
      let b = breakdown r in
      Tango_obs.Counter.add c_alloc_parse r.parse_alloc_bytes;
      Tango_obs.Counter.add c_alloc_optimize r.optimize_alloc_bytes;
      Tango_obs.Counter.add c_alloc_translate r.translate_alloc_bytes;
      Tango_obs.Counter.add c_alloc_transfer b.transfer_alloc_bytes;
      Tango_obs.Counter.add c_alloc_mw_exec b.mw_exec_alloc_bytes)
    run

(* Measure one top-level pipeline run, account its resources and hand
   its event to the session's observer, if any.
   Observer failures are swallowed: monitoring must never break the
   query path. *)
let observed t ~kind ?sql (f : unit -> report) : report =
  let g0 = Tango_obs.Runtime.point () in
  let started_us = now_us () in
  let m0 = mono_us () in
  let finish (report : report option) error =
    let gc = Tango_obs.Runtime.delta_since g0 in
    account_resources report gc;
    Option.iter
      (fun notify ->
        let run =
          Option.map
            (fun r -> { r with result = Relation.cardinality r.result })
            report
        in
        try
          notify
            { kind; sql; started_us; elapsed_us = mono_us () -. m0; run;
              error; gc }
        with _ -> ())
      t.query_observer
  in
  match f () with
  | r ->
      finish (Some r) None;
      r
  | exception e ->
      finish None (Some (Printexc.to_string e));
      raise e

(* Run a top-level pipeline entry under a fresh trace when the session asks
   for tracing (an already-active trace only gains a span). *)
let with_query_trace t name (f : unit -> report) : report =
  if not t.config.Config.tracing then f ()
  else if Tango_obs.Trace.active () then Tango_obs.Trace.span name f
  else begin
    Tango_obs.Trace.start ();
    match Tango_obs.Trace.span name f with
    | r -> { r with trace = Tango_obs.Trace.finish () }
    | exception e ->
        ignore (Tango_obs.Trace.finish ());
        raise e
  end

(* One execution's measurements. *)
type execution = {
  result : Relation.t;
  exec : Exec_plan.node;  (* with per-algorithm measured times *)
  translate_us : float;
  translate_alloc_bytes : int;
  execute_us : float;
  execute_alloc_bytes : int;
  backends : (string * backend_breakdown) list;
}

(* Execute a chosen physical plan: translate it, pull its cursor tree to
   a relation under a per-backend attribution collector, and drop the
   temp tables its `TRANSFER^D` steps created. *)
let execute_physical_full t (physical : Physical.plan) : execution =
  let (exec, temp_tables), translate_us, translate_alloc_bytes =
    phase "translate" (fun () -> Exec_plan.of_physical (database t) physical)
  in
  let collector = Tango_xxl.Attribution.create () in
  let result, execute_us, execute_alloc_bytes =
    phase "execute" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            (* end statements whose consumer stopped early (a merge join
               leaves its other input unread), so no stream outlives the
               query or reads a dropped table; temp tables were
               replicated to every backend *)
            List.iter Backend.close_cursors (Topology.backends t.topology);
            List.iter
              (fun tbl ->
                List.iter
                  (fun b -> Tango_xxl.Transfer.drop_temp_table b tbl)
                  (Topology.backends t.topology))
              temp_tables)
          (fun () ->
            Tango_xxl.Attribution.with_collector collector (fun () ->
                (* per-node bytes are read only by the trace the
                   executed tree is grafted into and by profiling *)
                let ctx =
                  Exec_plan.run_ctx
                    ~share_transfers:t.config.Config.share_transfers
                    ~count_bytes:
                      (t.config.Config.profiling || Tango_obs.Trace.active ())
                    t.topology
                in
                let r =
                  Tango_xxl.Cursor.to_relation
                    (Exec_plan.build_cursor ctx exec)
                in
                Tango_obs.Trace.attr "tuples"
                  (Tango_obs.Trace.Int (Relation.cardinality r));
                (* graft the measured operator tree under the execute
                   span *)
                Tango_obs.Trace.graft (Exec_plan.to_trace exec);
                r)))
  in
  {
    result;
    exec;
    translate_us;
    translate_alloc_bytes;
    execute_us;
    execute_alloc_bytes;
    backends = Tango_xxl.Attribution.breakdown collector;
  }

(* The profiling hook (after execution): pair the chosen physical plan
   with the measured operator trace, fold the per-operator est-vs-actual
   records into the feedback store, maybe refit cost factors, and pass
   the execution by the plan-regression sentinel.  [query_fingerprint]
   identifies the {e query} (pre-optimization), so the sentinel can
   compare plan choices across executions of the same query; on a
   plan-cache hit it comes from the cache entry. *)
let profile_execution t ~(query_fingerprint : string)
    (physical : Physical.plan) (exec : Exec_plan.node) ~execute_us :
    Tango_profile.Analyze.report option =
  if not t.config.Config.profiling then None
  else begin
    let analysis =
      Tango_profile.Analyze.analyze ~stats_env:(stats_env t)
        ~factors:t.factors ~row_prefetch:t.config.Config.row_prefetch physical
        (Exec_plan.to_trace exec)
    in
    Tango_profile.Feedback.record t.profile analysis;
    if t.config.Config.adaptive_costs then
      (match Tango_profile.Adapt.maybe_refit t.profile ~factors:t.factors with
      | Some refitted ->
          Log.info (fun m ->
              m "adaptive costs: refitted %s" (String.concat ", " refitted));
          (* refitted factors re-rank plans: cached choices are stale *)
          invalidate_plan_cache t ~reason:"cost-refit"
      | None -> ());
    ignore
      (Tango_profile.Sentinel.observe t.sentinel
         ~fingerprint:query_fingerprint
         ~signature:(Physical.signature physical)
         ~elapsed_us:execute_us);
    Some analysis
  end

(* ------------------------------------------------------------------ *)
(* Plan cache: lookup and template binding                               *)
(* ------------------------------------------------------------------ *)

(* A table's version on every backend, in topology order ([None] where
   it does not exist).  A replicated table is read on the primary and the
   partitioned one on every shard; every backend covers both. *)
let table_versions t table =
  List.map (fun db -> Database.table_version db table) (databases t)

(* Each table [op] scans, with its versions: what a cache entry records. *)
let versions t (op : Op.t) =
  let rec scanned acc (op : Op.t) =
    match op with
    | Op.Scan { table; _ } -> if List.mem table acc then acc else table :: acc
    | _ -> List.fold_left scanned acc (Op.children op)
  in
  List.map (fun table -> (table, table_versions t table)) (scanned [] op)

(* Plan-cache lookup.  An entry that read a table which has changed since
   (an append, DDL, index DDL or ANALYZE on any backend) is a miss and
   flushes everything. *)
let cache_find ~kind t (sql : string) : cache_entry option =
  if not t.config.Config.plan_cache then None
  else
    let stale = ref false in
    let current (e : cache_entry) =
      stale :=
        List.exists (fun (table, vs) -> vs <> table_versions t table) e.cached_versions;
      not !stale
    in
    match Tango_cache.Plan_cache.find ~kind ~current t.plan_cache ~sql with
    | None when !stale ->
        invalidate_plan_cache t ~reason:"ddl";
        None
    | found -> found

(* Instantiate a plan template under a binding: substitute literals for
   parameters, then re-run partition pruning — the template was planned
   with parameterized period predicates unresolved (every shard kept),
   and the bound values may exclude shards. *)
let instantiate_for t (values : Value.t array) (template : Physical.plan) :
    Physical.plan =
  prune t (Physical.instantiate values template)

(* ------------------------------------------------------------------ *)
(* The pipeline                                                          *)
(* ------------------------------------------------------------------ *)

(* What a top-level run starts from.  [Text] is cache-keyed on the full
   SQL text and [Bound] on a parameterized text (a template) plus its
   binding; [Plan] is an initial logical plan to optimize and [Fixed] a
   plan tree to cost as written — neither touches the plan cache. *)
type entry =
  | Text of string
  | Bound of string * Value.t array
  | Plan of Op.t * Order.t
  | Fixed of Op.t * Order.t

(* The plan stage's product: the physical plan to execute and how it was
   obtained. *)
type planned = {
  plan : Physical.plan;
  fingerprint : string;  (* of the query, for the sentinel *)
  memo_classes : int;
  memo_elements : int;
  parse_us : float;
  parse_alloc_bytes : int;
  optimize_us : float;
  optimize_alloc_bytes : int;
  cache : cache_report option;  (* for the SQL entries, with the cache on *)
}

(* Stage 1: with the plan cache and [auto_parameterize] on, fold a text's
   constant literals into bind variables, so literal-varying repetitions
   of one query shape share a template entry. *)
let resolve t (entry : entry) : entry =
  match entry with
  | Text sql
    when t.config.Config.plan_cache && t.config.Config.auto_parameterize -> (
      match Parameterize.extract sql with
      | Some { Parameterize.template; values } ->
          Bound (template, Array.of_list values)
      | None -> entry)
  | _ -> entry

(* Stage 2 on a plan-cache hit: the entry's plan — for a template, the
   generic plan instantiated under the binding — with the metadata
   recorded when it was optimized.  No parse or optimize runs. *)
let cached_plan t (entry : entry) : planned option =
  let hit (e : cache_entry) ~cls plan =
    Tango_obs.Trace.attr "cache" (Tango_obs.Trace.Str cls);
    Log.debug (fun m -> m "plan cache %s" cls);
    t.last_diagnostics <- e.cached_diagnostics;
    {
      plan;
      fingerprint = e.cached_fp;
      memo_classes = e.cached_classes;
      memo_elements = e.cached_elements;
      parse_us = 0.0;
      parse_alloc_bytes = 0;
      optimize_us = 0.0;
      optimize_alloc_bytes = 0;
      cache = Some { cache_class = cls };
    }
  in
  match entry with
  | Text sql ->
      cache_find ~kind:Tango_cache.Plan_cache.Exact t sql
      |> Option.map (fun e -> hit e ~cls:"exact-hit" e.cached_physical)
  | Bound (template, values) ->
      cache_find ~kind:Tango_cache.Plan_cache.Template t template
      |> Option.map (fun e ->
             hit e ~cls:"template-hit"
               (instantiate_for t values e.cached_physical))
  | Plan _ | Fixed _ -> None

(* Stage 2 otherwise: parse the SQL (if any) and optimize it once — a
   fixed tree is only costed — then insert the cache entry {e before}
   execution, so a cost-refit flush during execution removes it. *)
let fresh_plan t (entry : entry) : planned =
  let (initial, required_order), parse_us, parse_alloc_bytes =
    match entry with
    | Text sql | Bound (sql, _) ->
        phase "parse" (fun () ->
            Tango_tsql.Compile.initial_plan_and_order
              ~lookup:(schema_lookup t) sql)
    | Plan (op, order) | Fixed (op, order) ->
        ((op, order), 0.0, 0)
  in
  (* read before the search: an entry never claims a version newer than
     the statistics it was costed with *)
  let cached_versions = if t.config.Config.plan_cache then versions t initial else [] in
  let r, optimize_alloc_bytes =
    match entry with
    | Fixed _ ->
        let plan =
          match
            Search.cost_plan ~factors:t.factors ~stats_env:(stats_env t)
              ~required_order ?partition:(partition_layout t)
              ~shard_factors:(shard_factors t) initial
          with
          | None -> raise (No_plan "plan tree is not executable as written")
          | Some plan -> prune t plan
        in
        record_diagnostics t (verify_final t ~required_order plan);
        ( { Search.plan = Some plan; classes = 0; elements = 0;
            considered = 0; time_us = 0.0 },
          0 )
    | Text _ | Bound _ | Plan _ ->
        let r, _, alloc =
          phase "optimize" (fun () ->
              let r = optimize t ~required_order initial in
              Tango_obs.Trace.attr "classes"
                (Tango_obs.Trace.Int r.Search.classes);
              Tango_obs.Trace.attr "elements"
                (Tango_obs.Trace.Int r.Search.elements);
              r)
        in
        (r, alloc)
  in
  match r.Search.plan with
  | None -> raise (No_plan "optimizer found no feasible plan")
  | Some plan ->
      Log.debug (fun m ->
          m "optimized in %.1f ms (%d classes, %d elements): %s est=%.0fus"
            (r.Search.time_us /. 1000.0) r.Search.classes r.Search.elements
            (Physical.signature plan) plan.Physical.total_cost);
      let fingerprint = Physical.op_fingerprint initial in
      let add sql =
        if t.config.Config.plan_cache then
          Tango_cache.Plan_cache.add t.plan_cache ~sql
            {
              cached_physical = plan;
              cached_classes = r.Search.classes;
              cached_elements = r.Search.elements;
              cached_diagnostics = t.last_diagnostics;
              cached_versions;
              cached_fp = fingerprint;
            }
      in
      let miss =
        if t.config.Config.plan_cache then
          Some { cache_class = "miss" }
        else None
      in
      let plan, cache =
        match entry with
        | Text sql ->
            add sql;
            (plan, miss)
        | Bound (sql, values) ->
            add sql;
            (instantiate_for t values plan, miss)
        | Plan _ | Fixed _ -> (plan, None)
      in
      {
        plan;
        fingerprint;
        memo_classes = r.Search.classes;
        memo_elements = r.Search.elements;
        parse_us;
        parse_alloc_bytes;
        optimize_us = r.Search.time_us;
        optimize_alloc_bytes;
        cache;
      }

(* One top-level run: resolve, plan, execute, profile and report, under
   one observer event and one trace rooted at ["middleware." ^ kind]. *)
let run t (entry : entry) : report =
  let kind, sql =
    match entry with
    | Text sql | Bound (sql, _) -> ("query", Some sql)
    | Plan _ -> ("run_plan", None)
    | Fixed _ -> ("run_fixed", None)
  in
  Option.iter (fun sql -> Log.debug (fun m -> m "query: %s" sql)) sql;
  observed t ~kind ?sql (fun () ->
      with_query_trace t ("middleware." ^ kind) (fun () ->
          let entry = resolve t entry in
          let p =
            match cached_plan t entry with
            | Some p -> p
            | None -> fresh_plan t entry
          in
          let x = execute_physical_full t p.plan in
          Log.info (fun m ->
              m "executed %s: %d tuples in %.1f ms (estimated %.1f ms)"
                (Physical.algorithm_name p.plan.Physical.algorithm)
                (Relation.cardinality x.result) (x.execute_us /. 1000.0)
                (p.plan.Physical.total_cost /. 1000.0));
          let analysis =
            profile_execution t ~query_fingerprint:p.fingerprint p.plan x.exec
              ~execute_us:x.execute_us
          in
          {
            result = x.result;
            physical = p.plan;
            exec = x.exec;
            classes = p.memo_classes;
            elements = p.memo_elements;
            estimated_cost_us = p.plan.Physical.total_cost;
            trace = None;
            analysis;
            diagnostics = t.last_diagnostics;
            cache = p.cache;
            parse_us = p.parse_us;
            optimize_us = p.optimize_us;
            translate_us = x.translate_us;
            execute_us = x.execute_us;
            parse_alloc_bytes = p.parse_alloc_bytes;
            optimize_alloc_bytes = p.optimize_alloc_bytes;
            translate_alloc_bytes = x.translate_alloc_bytes;
            execute_alloc_bytes = x.execute_alloc_bytes;
            backends = x.backends;
          }))

(** The full pipeline: temporal SQL in, relation out.  With the session's
    [plan_cache] on, a re-submitted query text skips parse and optimize
    entirely and executes the cached physical plan; with
    [auto_parameterize] additionally on, constant literals are folded
    into bind variables first, so literal-varying repetitions of one
    query shape share a single template entry. *)
let query t (sql : string) : report = run t (Text sql)

(** The parameterized pipeline: SQL carrying bind variables ([?] or
    [$n]) plus the values to bind, positionally.  The text is the cache
    key, so every binding of one statement shares a single template
    entry; the plan is instantiated under the binding at execution
    time. *)
let query_params t (sql : string) (values : Value.t list) : report =
  match values with
  | [] -> query t sql
  | values -> run t (Bound (sql, Array.of_list values))

(** Optimize and execute an initial algebra plan. *)
let run_plan t ?(required_order : Order.t = []) (initial : Op.t) : report =
  run t (Plan (initial, required_order))

(** Execute a {e fixed} plan tree (used by the experiments to time the
    paper's hand-enumerated plan alternatives). *)
let run_fixed t ?(required_order : Order.t = []) (plan_tree : Op.t) : report =
  run t (Fixed (plan_tree, required_order))
