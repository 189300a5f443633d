(** The SLO drill-down: correlates burn with its likely cause.

    A burning SLO says {e that} the service is slow, not {e why}.  The
    watchdog pulls the signals the middleware already tracks — burn
    state, cardinality/cost misestimation trend, plan-cache hit rate —
    next to a tail-record analysis of the event log that names the
    dominant backend and the dominant pipeline phase, so
    [/debug/watchdog] answers "who is burning my budget" in one fetch.

    An evaluation reads and never writes: the cache-hit-rate signal
    compares the hit rate of the runs the ring holds against the plan
    cache's lifetime rate, so every poller at one moment gets the same
    verdict. *)

type signal = {
  name : string;
  firing : bool;
  detail : string;  (** human-readable evidence, firing or not *)
}

type verdict = {
  state : Slo.state;
  signals : signal list;
  dominant_backend : (string * float) option;
  dominant_phase : (string * float) option;
  tail_records : int;
}

module Middleware = Tango_core.Middleware

(* Worst per-cost-factor mean q-error above which [q_error] fires. *)
let q_error_warn = 2.0

(* Samples a factor needs before its mean q-error can fire [q_error]: a
   handful of queries is not a trend. *)
let q_error_min_samples = 20

(* The ring's hit rate falling more than this below the plan cache's
   lifetime rate fires [cache_hit_rate]. *)
let hit_rate_drop = 0.2

(* The tail analysis covers records at or above this latency quantile of
   the event-log ring. *)
let tail_fraction = 0.9

(* ------------------------------------------------------------------ *)
(* Tail attribution                                                     *)
(* ------------------------------------------------------------------ *)

let elapsed_us (r : Event_log.record) =
  r.Event_log.event.Middleware.elapsed_us

(* Records at or above the [tail_fraction] latency quantile of what the
   ring currently holds (always at least the slowest record). *)
let tail_records (records : Event_log.record list) =
  match records with
  | [] -> []
  | _ ->
      let totals = List.sort compare (List.map elapsed_us records) in
      let n = List.length totals in
      let cut =
        List.nth totals
          (min (n - 1) (int_of_float (tail_fraction *. float_of_int n)))
      in
      List.filter (fun r -> elapsed_us r >= cut) records

let argmax = function
  | [] -> None
  | (k0, v0) :: rest ->
      let k, v =
        List.fold_left
          (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
          (k0, v0) rest
      in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rest +. v0 in
      if total <= 0.0 then None else Some (k, v /. total)

(* Which backend the tail spends its boundary time on: argmax over
   Σ (transfer + gather-wait) per backend, as a share of the tail's
   whole boundary time. *)
let dominant_backend (runs : int Middleware.run list) =
  let sums : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (r : int Middleware.run) ->
      List.iter
        (fun (name, (b : Middleware.backend_breakdown)) ->
          if not (Hashtbl.mem sums name) then order := name :: !order;
          Hashtbl.replace sums name
            (Option.value ~default:0.0 (Hashtbl.find_opt sums name)
            +. b.Middleware.us +. b.Middleware.wait_us))
        r.Middleware.backends)
    runs;
  argmax
    (List.rev_map (fun name -> (name, Hashtbl.find sums name)) !order)

(* Which pipeline phase the tail spends its wall time in. *)
let dominant_phase (runs : int Middleware.run list) =
  let phases = List.map (fun r -> (r, Middleware.breakdown r)) runs in
  let sum f = List.fold_left (fun acc (r, b) -> acc +. f r b) 0.0 phases in
  argmax
    [
      ("parse", sum (fun r _ -> r.Middleware.parse_us));
      ("optimize", sum (fun r _ -> r.Middleware.optimize_us));
      ("translate", sum (fun r _ -> r.Middleware.translate_us));
      ("mw-exec", sum (fun _ b -> b.Middleware.mw_exec_us));
      ("transfer", sum (fun _ b -> b.Middleware.transfer_us));
      ("gather-wait", sum (fun _ b -> b.Middleware.gather_wait_us));
    ]

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)
(* ------------------------------------------------------------------ *)

let slo_signal (v : Slo.verdict) =
  {
    name = "slo_burn";
    firing = v.Slo.state <> Slo.Ok;
    detail =
      Printf.sprintf "state=%s latency_burn=%.2f/%.2f error_burn=%.2f/%.2f"
        (Slo.state_name v.Slo.state)
        v.Slo.latency_burn_short v.Slo.latency_burn_long v.Slo.error_burn_short
        v.Slo.error_burn_long;
  }

(* Worst per-cost-factor mean q-error in the feedback store: sustained
   misestimation means the optimizer is likely picking wrong plans.  Only
   factors with at least [q_error_min_samples] samples can fire; below
   that the worst one is reported with its count. *)
let q_error_signal feedback =
  let signal firing detail = { name = "q_error"; firing; detail } in
  let worst factors =
    List.fold_left
      (fun acc (factor, (samples, q)) ->
        match acc with
        | Some (_, _, bq) when bq >= q -> acc
        | _ when samples > 0 -> Some (factor, samples, q)
        | _ -> acc)
      None factors
  in
  match feedback with
  | None -> signal false "no profiling"
  | Some fb -> (
      let factors = Tango_profile.Feedback.factor_q fb in
      let evidenced =
        List.filter (fun (_, (samples, _)) -> samples >= q_error_min_samples) factors
      in
      match (worst evidenced, worst factors) with
      | Some (factor, samples, q), _ ->
          signal (q > q_error_warn)
            (Printf.sprintf "worst factor %s mean_q=%.2f over %d samples" factor q
               samples)
      | None, Some (factor, samples, q) ->
          signal false
            (Printf.sprintf
               "worst factor %s mean_q=%.2f over %d samples (fewer than %d)" factor
               q samples q_error_min_samples)
      | None, None -> signal false "no samples")

(* The hit rate of the runs the ring holds against the plan cache's
   lifetime rate: a recent rate well below the lifetime one means the
   workload left the cached plans behind (invalidation storm, shifted
   query mix). *)
let cache_signal records cache =
  let signal firing detail = { name = "cache_hit_rate"; firing; detail } in
  let outcomes =
    List.filter_map
      (fun (r : Event_log.record) ->
        Option.bind r.Event_log.event.Middleware.run (fun run ->
            run.Middleware.cache))
      records
  in
  match (cache, outcomes) with
  | None, _ -> signal false "no plan cache"
  | Some _, [] -> signal false "no cached runs in the log"
  | Some (s : Tango_cache.Plan_cache.stats), _ ->
      let runs = List.length outcomes in
      let hits =
        List.length
          (List.filter
             (fun (c : Middleware.cache_report) ->
               c.Middleware.cache_class <> "miss")
             outcomes)
      in
      let recent = float_of_int hits /. float_of_int runs
      and lifetime =
        float_of_int s.Tango_cache.Plan_cache.hits
        /. float_of_int
             (s.Tango_cache.Plan_cache.hits + s.Tango_cache.Plan_cache.misses)
      in
      let firing = lifetime -. recent > hit_rate_drop in
      signal firing
        (Printf.sprintf "hit rate %.2f over the last %d runs, %.2f lifetime%s"
           recent runs lifetime
           (match s.Tango_cache.Plan_cache.last_invalidation with
           | Some reason when firing -> "; last invalidation: " ^ reason
           | _ -> ""))

(* ------------------------------------------------------------------ *)
(* Verdict                                                              *)
(* ------------------------------------------------------------------ *)

let evaluate ~now_us ~slo ~log ?feedback ?cache () : verdict =
  let slo_verdict = Slo.evaluate slo ~now_us in
  let records = Event_log.recent log in
  let signals =
    [
      slo_signal slo_verdict;
      q_error_signal feedback;
      cache_signal records cache;
    ]
  in
  let tail = tail_records records in
  let runs =
    List.filter_map
      (fun (r : Event_log.record) -> r.Event_log.event.Middleware.run)
      tail
  in
  let state =
    if slo_verdict.Slo.state <> Slo.Ok then slo_verdict.Slo.state
    else if List.exists (fun s -> s.firing) signals then Slo.Warning
    else Slo.Ok
  in
  {
    state;
    signals;
    dominant_backend = dominant_backend runs;
    dominant_phase = dominant_phase runs;
    tail_records = List.length tail;
  }

let verdict_to_json (v : verdict) : Tango_obs.Json.t =
  let open Tango_obs.Json in
  let dominant = function
    | None -> Null
    | Some (name, share) ->
        Obj [ ("name", String name); ("share", Float share) ]
  in
  Obj
    [
      ("state", String (Slo.state_name v.state));
      ( "signals",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("signal", String s.name);
                   ("firing", Bool s.firing);
                   ("detail", String s.detail);
                 ])
             v.signals) );
      ("dominant_backend", dominant v.dominant_backend);
      ("dominant_phase", dominant v.dominant_phase);
      ("tail_records", Int v.tail_records);
    ]
