(** Sliding-window SLO tracking with multi-window burn-rate alerting.

    Two objectives over the query stream:

    - {b latency}: at least [latency_goal] of queries complete within
      [latency_us];
    - {b availability}: at least [error_goal] of queries succeed.

    For each, the {e burn rate} over a window is the observed
    bad-fraction divided by the budget ([1 - goal]): burn 1.0 consumes
    the budget exactly, burn 4.0 consumes it four times as fast.  The
    alert state uses the classic two-window rule — a condition fires
    only when {e both} the short window (fast reaction, noisy) and the
    long window (slow, stable) exceed a threshold:

    - [Critical] when both windows burn at >= [critical_burn];
    - [Warning] when both windows burn at >= [warn_burn];
    - [Ok] otherwise.

    The worst state across the two objectives is reported.  Timestamps
    are supplied by the caller ([now_us]), so the engine is fully
    deterministic under test. *)

type objective = {
  latency_us : float;
  latency_goal : float;
  error_goal : float;
  short_window_us : float;
  long_window_us : float;
  warn_burn : float;
  critical_burn : float;
}

let default_objective =
  {
    latency_us = 100_000.0 (* 100 ms *);
    latency_goal = 0.95;
    error_goal = 0.99;
    short_window_us = 60. *. 1e6 (* 1 min *);
    long_window_us = 600. *. 1e6 (* 10 min *);
    warn_burn = 1.0;
    critical_burn = 4.0;
  }

type state = Ok | Warning | Critical

let state_name = function
  | Ok -> "ok"
  | Warning -> "warning"
  | Critical -> "critical"

let state_rank = function Ok -> 0 | Warning -> 1 | Critical -> 2

type sample = { at_us : float; slow : bool; failed : bool }

module Dsync = Tango_obs.Dsync

type t = {
  objective : objective;
  lock : Dsync.lock;  (** guards [samples] *)
  samples : sample Queue.t;  (** oldest first, pruned to the long window *)
}

(* Bounds the sample memory beyond the long window's pruning. *)
let max_samples = 8192

let create ?(objective = default_objective) () =
  if objective.latency_goal >= 1.0 || objective.error_goal >= 1.0 then
    invalid_arg "Slo.create: goals must leave a nonzero error budget";
  if objective.short_window_us > objective.long_window_us then
    invalid_arg "Slo.create: short window exceeds long window";
  { objective; lock = Dsync.named_lock "monitor.slo"; samples = Queue.create () }

let objective t = t.objective

(* Only called with [t.lock] held. *)
let prune t ~now_us =
  let horizon = now_us -. t.objective.long_window_us in
  while
    (not (Queue.is_empty t.samples))
    && (Queue.peek t.samples).at_us < horizon
  do
    ignore (Queue.pop t.samples)
  done;
  while Queue.length t.samples > max_samples do
    ignore (Queue.pop t.samples)
  done
[@@tango.unguarded "internal helper, only called under t.lock"]

let observe t ~now_us ~latency_us ~ok =
  Dsync.protect t.lock (fun () ->
      Queue.push
        {
          at_us = now_us;
          slow = latency_us > t.objective.latency_us;
          failed = not ok;
        }
        t.samples;
      prune t ~now_us)

type window_stats = { total : int; slow : int; failed : int }

let window_stats t ~now_us ~width_us =
  let horizon = now_us -. width_us in
  Queue.fold
    (fun acc s ->
      if s.at_us >= horizon then
        {
          total = acc.total + 1;
          slow = (acc.slow + if s.slow then 1 else 0);
          failed = (acc.failed + if s.failed then 1 else 0);
        }
      else acc)
    { total = 0; slow = 0; failed = 0 }
    t.samples

let burn ~budget ~bad ~total =
  if total = 0 then 0.0
  else float_of_int bad /. float_of_int total /. budget

type verdict = {
  state : state;
  latency_burn_short : float;
  latency_burn_long : float;
  error_burn_short : float;
  error_burn_long : float;
  short : window_stats;
  long : window_stats;
}

let evaluate t ~now_us : verdict =
  let short, long =
    Dsync.protect t.lock (fun () ->
        prune t ~now_us;
        let o = t.objective in
        ( window_stats t ~now_us ~width_us:o.short_window_us,
          window_stats t ~now_us ~width_us:o.long_window_us ))
  in
  let o = t.objective in
  let latency_budget = 1.0 -. o.latency_goal
  and error_budget = 1.0 -. o.error_goal in
  let latency_burn_short =
    burn ~budget:latency_budget ~bad:short.slow ~total:short.total
  and latency_burn_long =
    burn ~budget:latency_budget ~bad:long.slow ~total:long.total
  and error_burn_short =
    burn ~budget:error_budget ~bad:short.failed ~total:short.total
  and error_burn_long =
    burn ~budget:error_budget ~bad:long.failed ~total:long.total
  in
  (* two-window rule: both windows must agree before a state fires *)
  let pair_state s l =
    if s >= o.critical_burn && l >= o.critical_burn then Critical
    else if s >= o.warn_burn && l >= o.warn_burn then Warning
    else Ok
  in
  let latency_state = pair_state latency_burn_short latency_burn_long
  and error_state = pair_state error_burn_short error_burn_long in
  let state =
    if state_rank error_state > state_rank latency_state then error_state
    else latency_state
  in
  {
    state;
    latency_burn_short;
    latency_burn_long;
    error_burn_short;
    error_burn_long;
    short;
    long;
  }

let verdict_to_json (o : objective) (v : verdict) : Tango_obs.Json.t =
  let open Tango_obs.Json in
  let window name (w : window_stats) burn_latency burn_error =
    ( name,
      Obj
        [
          ("queries", Int w.total);
          ("slow", Int w.slow);
          ("failed", Int w.failed);
          ("latency_burn", Float burn_latency);
          ("error_burn", Float burn_error);
        ] )
  in
  Obj
    [
      ("state", String (state_name v.state));
      ( "objective",
        Obj
          [
            ("latency_us", Float o.latency_us);
            ("latency_goal", Float o.latency_goal);
            ("error_goal", Float o.error_goal);
            ("short_window_s", Float (o.short_window_us /. 1e6));
            ("long_window_s", Float (o.long_window_us /. 1e6));
            ("warn_burn", Float o.warn_burn);
            ("critical_burn", Float o.critical_burn);
          ] );
      window "short_window" v.short v.latency_burn_short v.error_burn_short;
      window "long_window" v.long v.latency_burn_long v.error_burn_long;
    ]

let to_json t ~now_us : Tango_obs.Json.t =
  verdict_to_json t.objective (evaluate t ~now_us)

(** Gauge series for the metrics endpoint: the state as 0/1/2 and the
    four burn rates. *)
let prometheus_gauges (v : verdict) : (string * float) list =
  [
    ("monitor.slo_state", float_of_int (state_rank v.state));
    ("monitor.slo_latency_burn_short", v.latency_burn_short);
    ("monitor.slo_latency_burn_long", v.latency_burn_long);
    ("monitor.slo_error_burn_short", v.error_burn_short);
    ("monitor.slo_error_burn_long", v.error_burn_long);
  ]
