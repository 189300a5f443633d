(** Sliding-window SLO tracking with multi-window burn-rate alerting.

    Latency ([latency_goal] of queries within [latency_us]) and
    availability ([error_goal] of queries succeed) objectives over the
    query stream.  The burn rate over a window is the bad-fraction
    divided by the budget [1 - goal]; an alert state fires only when
    {e both} the short and the long window exceed its threshold, and the
    worst state across the two objectives is reported.  The caller
    supplies timestamps, so the engine is deterministic under test. *)

type objective = {
  latency_us : float;  (** per-query latency objective *)
  latency_goal : float;  (** fraction that must meet it, e.g. [0.95] *)
  error_goal : float;  (** fraction that must succeed, e.g. [0.99] *)
  short_window_us : float;
  long_window_us : float;
  warn_burn : float;  (** both-window burn threshold for [Warning] *)
  critical_burn : float;  (** both-window burn threshold for [Critical] *)
}

val default_objective : objective
(** 95% of queries within 100ms, 99% succeed; 1min/10min windows;
    warn at burn 1.0, critical at burn 4.0. *)

type state = Ok | Warning | Critical

val state_name : state -> string
(** ["ok"] / ["warning"] / ["critical"]. *)

type t

val create : ?objective:objective -> unit -> t
(** At most 8192 samples are kept; beyond that the oldest are dropped
    early.  Raises
    [Invalid_argument] when a goal leaves no error budget or the short
    window exceeds the long one. *)

val observe : t -> now_us:float -> latency_us:float -> ok:bool -> unit
(** Record one query: [latency_us] against the latency objective, [ok]
    against the availability objective. *)

type window_stats = { total : int; slow : int; failed : int }

type verdict = {
  state : state;
  latency_burn_short : float;
  latency_burn_long : float;
  error_burn_short : float;
  error_burn_long : float;
  short : window_stats;
  long : window_stats;
}

val evaluate : t -> now_us:float -> verdict
(** Burn rates and alert state as of [now_us]; empty windows burn 0. *)

val to_json : t -> now_us:float -> Tango_obs.Json.t

val prometheus_gauges : verdict -> (string * float) list
(** [(dotted name, value)] gauges for the metrics endpoint: the state as
    0/1/2 and the four burn rates. *)
