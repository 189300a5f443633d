(** TANGO — the temporal middleware session (paper Figure 1).

    A session owns a backend connection to the conventional DBMS and drives
    the full pipeline: parse temporal SQL into the initial plan, collect
    statistics, optimize (transformation rules + cost-based physical
    search), translate DBMS-resident parts to SQL, execute through the
    iterator engine, and optionally adapt cost factors from measured
    times. *)

open Tango_rel
open Tango_algebra

(** Immutable session configuration.  Build one from {!Config.default} with
    the [with_*] combinators and pass it to {!connect}:

    {[
      let config =
        Middleware.Config.(
          default |> with_roundtrip_spin 0 |> with_tracing true)
      in
      let mw = Middleware.connect ~config db in
      ...
    ]} *)
module Config : sig
  (** How much plan verification ({!Tango_verify}) to run per query. *)
  type verify_mode =
    | Verify_off  (** no verification (the default) *)
    | Verify_final  (** verify the chosen physical plan *)
    | Verify_per_rule
        (** additionally gate every transformation-rule application
            ({!Tango_verify.Gate}) — a debug mode *)

  type t = {
    row_prefetch : int;  (** rows fetched per boundary round trip *)
    roundtrip_spin : int;  (** simulated per-round-trip latency spin *)
    selectivity_mode : Tango_stats.Selectivity.mode;
        (** [Temporal] (default) or [Naive] — the §3.3 comparison toggle *)
    histograms : bool;  (** collect histograms during ANALYZE *)
    share_transfers : bool;
        (** fetch alpha-equivalent `TRANSFER^M` statements once per query
            (the paper's §7 "issue only one T^M" refinement) *)
    tracing : bool;
        (** collect a {!Tango_obs.Trace} for each pipeline run *)
    profiling : bool;
        (** EXPLAIN-ANALYZE every execution: per-operator estimated vs
            actual records ({!run.analysis}) folded into the session's
            feedback store *)
    adaptive_costs : bool;
        (** close the loop: refit cost factors when the feedback store
            shows sustained misestimation (implies [profiling]) *)
    verify_plans : verify_mode;
        (** statically verify plans; findings surface in
            {!run.diagnostics} / {!last_diagnostics} *)
    plan_cache : bool;
        (** cache optimized physical plans keyed by normalized query text;
            a re-submitted {!query} skips parse and optimize *)
    auto_parameterize : bool;
        (** with [plan_cache] on, fold an incoming query's constant
            literals into bind variables before the cache lookup, so
            literal-varying repetitions of one query shape share a single
            {e template} entry (on by default; moot while [plan_cache] is
            off) *)
  }

  val default : t

  val with_roundtrip_spin : int -> t -> t
  val with_selectivity_mode : Tango_stats.Selectivity.mode -> t -> t
  val with_histograms : bool -> t -> t

  val with_transfer_sharing : bool -> t -> t
  val with_tracing : bool -> t -> t
  val with_profiling : bool -> t -> t

  val with_adaptive_costs : bool -> t -> t
  (** Enabling adaptation also enables [profiling]. *)

  val with_verify_plans : verify_mode -> t -> t

  val with_plan_cache : bool -> t -> t
  (** Enable/disable the plan cache (an LRU of 128 entries). *)

  val with_auto_parameterize : bool -> t -> t
  (** Auto-parameterization of literal constants (on by default; only
      takes effect while [plan_cache] is on). *)
end

type t

val log_src : Logs.src
(** The middleware's log source ([tango.middleware]); set its level to see
    chosen plans, execution times and cost-factor refits. *)

val connect :
  ?config:Config.t ->
  ?row_prefetch:int ->
  ?roundtrip_spin:int ->
  Tango_dbms.Database.t ->
  t
(** Open a session over one in-process DBMS (a {!Tango_dbms.Topology.single}
    topology) with the given configuration ({!Config.default} if omitted).
    [row_prefetch] and [roundtrip_spin] override the corresponding [config]
    fields (legacy convenience). *)

val connect_topology : ?config:Config.t -> Tango_dbms.Topology.t -> t
(** Open a session over an existing topology — possibly several backends
    range-partitioning a table (see {!Tango_dbms.Topology}).  Transfers out
    of sharded subtrees become partition-aware scatter/gather plans. *)

val topology : t -> Tango_dbms.Topology.t
val primary : t -> Tango_dbms.Backend.t

val database : t -> Tango_dbms.Database.t
(** The primary backend's database. *)

val factors : t -> Tango_cost.Factors.t
(** The session's (mutable) cost factors. *)

val partition_layout : t -> Tango_volcano.Partition.layout option
(** The optimizer's view of the topology: shard names and numeric bounds
    on the partition column.  [None] for a single-DBMS session. *)

val config : t -> Config.t
(** The session's current configuration. *)

val set_config : t -> Config.t -> unit
(** Replace the session configuration; applies [row_prefetch] and
    [roundtrip_spin] to every live backend, and flushes the plan cache
    when a setting that chooses plans or their findings changes
    ([histograms], [selectivity_mode], [verify_plans]). *)

val last_diagnostics : t -> Tango_verify.Diag.t list
(** Findings of the most recent plan verification ({!optimize} or
    {!run_fixed}); [[]] unless the configuration has [verify_plans] on. *)

val profile_store : t -> Tango_profile.Feedback.t
(** The session's feedback store: per-fragment misestimation statistics
    accumulated across profiled executions. *)

val calibrate : ?sizes:Tango_cost.Calibrate.probe_sizes -> t -> unit
(** Run cost-factor calibration against every connected backend; each
    backend's measured factors are stored in {!backend_factors} under its
    name, and the primary's are adopted as the session's globals. *)

val adopt_factors : t -> Tango_cost.Factors.t -> unit
(** Adopt previously calibrated factors (e.g. shared across sessions). *)

val refresh_statistics : t -> unit
(** Does nothing.  The session holds no statistics of its own: each
    optimization reads the catalog, and a cached plan is dropped once a
    table it reads has changed version (see {!Tango_dbms.Catalog}).  Kept
    because [ledger/inproc.ml] still calls it. *)

val plan_cache_stats : t -> Tango_cache.Plan_cache.stats
(** Hit/miss/eviction/invalidation totals of the session's plan cache. *)

val stats_env : t -> Tango_stats.Derive.env
(** The optimizer's statistics environment. *)

val schema_lookup : t -> string -> Schema.t

(** {1 Optimization} *)

val optimize :
  t ->
  ?required_order:Order.t ->
  Op.t ->
  Tango_volcano.Search.result
(** Optimize an initial algebra plan (which must carry its top [T^M]).
    When [verify_plans] is on, the chosen plan — and with
    [Verify_per_rule], every rule application — is verified; findings are
    in {!last_diagnostics}. *)

(** {1 Execution} *)

(** Plan-cache outcome attached to a {!report} (present only for {!query}
    runs with the configuration's [plan_cache] on).  The session totals
    are {!plan_cache_stats}. *)
type cache_report = {
  cache_class : string;
      (** ["template-hit"] — a parameterized template entry served this
          query (the plan was instantiated under the binding);
          ["exact-hit"] — the full text matched an exact entry;
          ["miss"] — parse + optimize ran *)
}

type backend_breakdown = Tango_xxl.Attribution.breakdown = {
  rows : int;  (** tuples that crossed this backend's boundary (its
      {!Tango_dbms.Backend.tuples_shipped} delta) *)
  bytes : int;  (** their wire bytes ({!Tango_dbms.Backend.bytes_shipped}) *)
  us : float;  (** transfer time: time inside boundary calls *)
  wait_us : float;
      (** gather-wait time: how long the merge sat blocked on this
          backend beyond the transfer time those pulls recorded *)
  alloc_bytes : int;
      (** bytes allocated on the pulling domain inside those boundary
          calls *)
}
(** Per-backend latency attribution for one query (re-exported from
    {!Tango_xxl.Attribution}).  Summing [us +. wait_us] over all
    backends gives the sharded execution's total boundary contribution. *)

(** The per-query record of one pipeline run: every phase's wall time
    and allocation, measured once, beside the plan and what it executed.
    Every other per-query number is derived from it by {!breakdown}.

    ['result] is the result relation in a {!report} and its cardinality
    in an observed {!query_event}, so a monitoring surface that keeps
    events never holds on to a relation. *)
type 'result run = {
  result : 'result;
  physical : Tango_volcano.Physical.plan;  (** the chosen plan *)
  exec : Exec_plan.node;  (** with per-algorithm measured times *)
  classes : int;  (** memo equivalence classes explored *)
  elements : int;  (** memo class elements explored *)
  estimated_cost_us : float;
  trace : Tango_obs.Trace.span option;
      (** the collected trace when the configuration has [tracing] set:
          parse / optimize / translate / execute phases, with the measured
          operator tree grafted under the execute span *)
  analysis : Tango_profile.Analyze.report option;
      (** per-operator estimated-vs-actual records with q-errors, when the
          configuration has [profiling] set *)
  diagnostics : Tango_verify.Diag.t list;
      (** plan-verification findings, when the configuration has
          [verify_plans] on: the per-rule gate's (in [Verify_per_rule]
          mode) plus the final plan's.  On a plan-cache hit these are the
          findings recorded when the plan was first optimized. *)
  cache : cache_report option;
      (** plan-cache outcome; [None] unless this was a {!query} run with
          [plan_cache] on *)
  parse_us : float;  (** 0 when parse was skipped (cache hit, plan entry) *)
  optimize_us : float;  (** 0 when optimize was skipped *)
  translate_us : float;
  execute_us : float;
      (** whole execution: transfer + gather-wait + middleware work *)
  parse_alloc_bytes : int;
  optimize_alloc_bytes : int;
  translate_alloc_bytes : int;
  execute_alloc_bytes : int;
  backends : (string * backend_breakdown) list;
      (** per-backend attribution, in first-touch order; [[]] when the
          plan never crossed a backend boundary *)
}

type report = Tango_rel.Relation.t run

(** What a {!run} implies.  The phases are {e conservative}: [parse +
    optimize + translate + mw_exec + transfer + gather_wait]
    approximates the pipeline wall time, because [mw_exec_us] is the
    execute-phase remainder after the boundary time. *)
type breakdown = {
  transfer_us : float;  (** Σ backend transfer time *)
  gather_wait_us : float;  (** Σ backend gather-wait time *)
  mw_exec_us : float;
      (** middleware-side execution: [execute - transfer - gather_wait],
          clamped at zero *)
  transfer_alloc_bytes : int;  (** Σ backend boundary allocation *)
  mw_exec_alloc_bytes : int;
      (** middleware-side execution allocation: [execute − transfer],
          clamped at zero *)
  mw_operators : int;  (** middleware-resident operators executed *)
  transfers : int;  (** [TRANSFER^M] statements issued *)
  tm_rows : int;  (** rows shipped DBMS -> middleware across [T^M] *)
  td_rows : int;  (** rows materialized middleware -> DBMS across [T^D] *)
  q_rows : float option;  (** mean cardinality q-error, when profiling *)
  q_cost : float option;  (** mean cost q-error, when profiling *)
  verify_errors : int;  (** error-severity verification findings *)
  verify_warnings : int;
}

val breakdown : _ run -> breakdown
(** The one derivation of a run's per-query numbers; the event log, the
    watchdog, the [tango_alloc_*] counters and the benchmarks all read
    it. *)

exception No_plan of string

(** {2 Pipeline observation}

    One event per top-level pipeline run, successful or not — the feed
    for monitoring surfaces ({!Tango_monitor}: per-query event logs, SLO
    burn-rate tracking). *)
type query_event = {
  kind : string;  (** ["query"] | ["run_plan"] | ["run_fixed"] *)
  sql : string option;  (** the temporal SQL text, for {!query} *)
  started_us : float;  (** wall clock ({!Tango_obs.now_us}) at entry *)
  elapsed_us : float;
      (** total pipeline duration, parse to result (monotonic clock) *)
  run : int run option;
      (** the run's record with its result cut to the row count; [None]
          when the pipeline raised *)
  error : string option;  (** the exception text when the pipeline raised *)
  gc : Tango_obs.Runtime.delta;
      (** whole-pipeline GC/allocation delta on the serving domain *)
}

val set_query_observer : t -> (query_event -> unit) option -> unit
(** Install (or with [None] remove) a callback invoked after every
    {!query} / {!run_plan} / {!run_fixed}, including runs that raise (the
    event then carries the exception text and no run, and the
    exception is re-raised).  One observer per session; exceptions the
    observer itself raises are swallowed — monitoring must never break
    the query path. *)

val run_plan : t -> ?required_order:Order.t -> Op.t -> report
(** Optimize and execute an initial algebra plan. *)

val query : t -> string -> report
(** The full pipeline: temporal SQL in, relation out.  With [plan_cache]
    on, a re-submitted text skips parse and optimize; with
    [auto_parameterize] additionally on, constant literals are folded
    into bind variables first, so literal-varying repetitions of one
    query shape share a single template entry whose plan is instantiated
    per binding. *)

val query_params : t -> string -> Value.t list -> report
(** The parameterized pipeline: temporal SQL carrying bind variables
    ([?] markers, numbered left to right, or explicit [$n]) plus the
    values to bind, positionally ([$1] first).  The parameterized text is
    the cache key, so every binding of one statement shares a single
    template entry; at execution time the cached plan template is
    instantiated under the binding (literals substituted, partition
    pruning re-run).  With an empty value list this is {!query}. *)

val run_fixed : t -> ?required_order:Order.t -> Op.t -> report
(** Execute a {e fixed} plan tree (used by the experiments to time the
    paper's hand-enumerated plan alternatives); raises {!No_plan} when the
    tree is not executable as written. *)
