(** SLO drill-down: correlates burn-rate state with the signals that
    usually explain it — misestimation trend and plan-cache hit-rate
    drops — and names the dominant backend and pipeline phase of the
    event log's latency tail.  Backs [GET /debug/watchdog]. *)

type signal = {
  name : string;
      (** ["slo_burn"] | ["q_error"] | ["cache_hit_rate"] *)
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

val evaluate :
  now_us:float ->
  slo:Slo.t ->
  log:Event_log.t ->
  ?feedback:Tango_profile.Feedback.t ->
  ?cache:Tango_cache.Plan_cache.stats ->
  unit ->
  verdict
(** One check; it changes no state, so two calls over the same inputs
    agree.  The thresholds are fixed: a worst per-cost-factor mean
    q-error above 2.0, over at least {!q_error_min_samples} samples,
    fires [q_error]; a hit rate over the ring's
    records (each record's cache outcome) more than 0.2 below the plan
    cache's lifetime rate fires [cache_hit_rate]; the tail analysis
    covers records at or above the 0.9 latency quantile of the ring. *)

val q_error_min_samples : int
(** Samples (20) a cost factor needs before its mean q-error can fire
    [q_error]; a factor with fewer is reported with its count and never
    fires. *)

val verdict_to_json : verdict -> Tango_obs.Json.t
