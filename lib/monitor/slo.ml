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
    deterministic under test.

    The counts live in a ring of one-second buckets spanning the long
    window, so memory is bounded by the windows and every query inside
    them counts, whatever the query rate.  A window of width [w] covers
    the [ceil(w / 1 s)] most recent buckets, the current partial one
    included. *)

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

let bucket_us = 1e6

type window_stats = { total : int; slow : int; failed : int }

(* One second's counts; [second] is [min_int] until the slot is used. *)
type bucket = {
  mutable second : int;
  mutable queries : int;
  mutable slow_queries : int;
  mutable failed_queries : int;
}

type t = {
  objective : objective;
  lock : Mutex.t;  (** guards [buckets] *)
  buckets : bucket array;  (** slot [s mod length] holds second [s] *)
}

let buckets_of width_us = max 1 (int_of_float (Float.ceil (width_us /. bucket_us)))

let create ?(objective = default_objective) () =
  if objective.latency_goal >= 1.0 || objective.error_goal >= 1.0 then
    invalid_arg "Slo.create: goals must leave a nonzero error budget";
  if objective.short_window_us > objective.long_window_us then
    invalid_arg "Slo.create: short window exceeds long window";
  {
    objective;
    lock = Mutex.create ();
    buckets =
      Array.init (buckets_of objective.long_window_us) (fun _ ->
          { second = min_int; queries = 0; slow_queries = 0; failed_queries = 0 });
  }

let second_of now_us = int_of_float (Float.floor (now_us /. bucket_us))

let observe t ~now_us ~latency_us ~ok =
  let s = second_of now_us in
  let n = Array.length t.buckets in
  let b = t.buckets.(((s mod n) + n) mod n) in
  Mutex.protect t.lock (fun () ->
      (* a slot holding an older second is reused; a sample older than
         the second its slot now holds is past the long window *)
      if b.second < s then begin
        b.second <- s;
        b.queries <- 0;
        b.slow_queries <- 0;
        b.failed_queries <- 0
      end;
      if b.second = s then begin
        b.queries <- b.queries + 1;
        if latency_us > t.objective.latency_us then
          b.slow_queries <- b.slow_queries + 1;
        if not ok then b.failed_queries <- b.failed_queries + 1
      end)

(* Only called with [t.lock] held. *)
let window_stats t ~now_us ~width_us =
  let oldest = second_of now_us - buckets_of width_us in
  Array.fold_left
    (fun acc b ->
      if b.second > oldest then
        {
          total = acc.total + b.queries;
          slow = acc.slow + b.slow_queries;
          failed = acc.failed + b.failed_queries;
        }
      else acc)
    { total = 0; slow = 0; failed = 0 }
    t.buckets

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
    Mutex.protect t.lock (fun () ->
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
