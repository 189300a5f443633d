(** SLO drill-down: correlates burn-rate state with the signals that
    usually explain it — misestimation trend, plan-cache hit-rate drops,
    topology-generation bumps — and names the dominant backend and
    pipeline phase of the event log's latency tail.  Backs
    [GET /debug/watchdog]. *)

type signal = {
  name : string;
      (** ["slo_burn"] | ["q_error"] | ["cache_hit_rate"] |
          ["parameter_sensitive_plan"] | ["topology_generation"] |
          ["lock_contention"] *)
  firing : bool;
  detail : string;  (** human-readable evidence, firing or not *)
}

type verdict = {
  state : Slo.state;
      (** the SLO state, lifted to at least [Warning] when any other
          signal fires *)
  signals : signal list;
  dominant_backend : (string * float) option;
      (** backend with the largest share of the tail's boundary time
          (transfer + gather-wait), with that share in [0, 1]; [None]
          when no tail record crossed a boundary *)
  dominant_phase : (string * float) option;
      (** pipeline phase (["parse"], ["optimize"], ["translate"],
          ["mw-exec"], ["transfer"], ["gather-wait"]) with the largest
          share of the tail's wall time *)
  tail_records : int;  (** records the tail analysis covered *)
}

type t

val create : generation:int -> unit -> t
(** Stateful tracker; [generation] seeds the topology baseline.  The
    thresholds are fixed: a worst per-cost-factor mean q-error above 2.0
    fires [q_error]; a hit-rate fall of more than 0.2 since the previous
    {!evaluate} fires [cache_hit_rate]; the tail analysis covers records
    at or above the 0.9 latency quantile of the event-log ring; lock
    wait accumulated since the previous check, divided by the wall time
    between checks, above 0.25 fires [lock_contention] (the first check
    only primes the baseline); a single plan-cache entry holding at
    least 2 sensitivity-guard region plans fires
    [parameter_sensitive_plan] — that statement's best plan depends on
    its bound values. *)

val evaluate :
  t ->
  now_us:float ->
  slo:Slo.t ->
  log:Event_log.t ->
  ?feedback:Tango_profile.Feedback.t ->
  ?cache:Tango_cache.Plan_cache.stats ->
  generation:int ->
  unit ->
  verdict
(** One check, advancing the tracker's baselines: the cache-hit-rate
    signal compares against the rate at the previous call, and the
    topology signal fires when [generation] advanced since then. *)

val verdict_to_json : verdict -> Tango_obs.Json.t
