(** Per-query event log: a fixed-capacity ring buffer of structured
    records fed from the middleware pipeline
    ({!Tango_core.Middleware.set_query_observer}).

    Admission is {e head-based}: the keep/drop decision is made when the
    event arrives, deterministically — every [sample_every]-th event is
    kept (by arrival ordinal), and two overrides always keep an event
    regardless of sampling: pipeline failures, and executions at least
    [slow_keep_us] slow.  Once admitted, records evict oldest-first when
    the ring is full.

    Every event (kept or not) also feeds the always-on aggregate
    metrics: [monitor.queries], [monitor.query_errors] and the
    [monitor.query_us] latency histogram, which is what [/metrics]
    exports buckets from.

    Domain safety: admission, ring writes and reads all run inside the
    instance's {!Tango_obs.Dsync} critical section, so one log can be
    fed from a multi-domain accept pool; sequence numbers are assigned
    under the lock and stay unique. *)

open Tango_core
module Dsync = Tango_obs.Dsync

(* aggregate metrics, fed on every event *)
let queries_total = Tango_obs.Counter.make "monitor.queries"
let query_errors = Tango_obs.Counter.make "monitor.query_errors"
let events_kept = Tango_obs.Counter.make "monitor.events_kept"
let events_sampled_out = Tango_obs.Counter.make "monitor.events_sampled_out"
let query_us = Tango_obs.Histogram.make "monitor.query_us"

type keep_reason = Sampled | Slow | Failed | Tail

type record = {
  seq : int;
  at_us : float;
  kind : string;
  sql : string option;
  fingerprint : string option;
  signature : string option;
  total_us : float;
  parse_us : float;
  optimize_us : float;
  translate_us : float;
  execute_us : float;
  mw_exec_us : float;
  transfer_us : float;
  gather_wait_us : float;
  (* per-phase allocation deltas (bytes), plus the whole-run GC counts *)
  parse_alloc_bytes : int;
  optimize_alloc_bytes : int;
  translate_alloc_bytes : int;
  transfer_alloc_bytes : int;
  mw_exec_alloc_bytes : int;
  alloc_bytes : int;
  minor_collections : int;
  major_collections : int;
  promoted_words : int;
  backends : (string * Middleware.backend_breakdown) list;
  trace : Tango_obs.Trace.span option;
  cache_hit : bool;
  cache_class : string;  (** "template-hit" | "exact-hit" | "miss" | "" *)
  rows : int;
  mw_operators : int;
  transfers : int;
  tm_rows : int;
  td_rows : int;
  roundtrips : int;
  q_rows : float option;
  q_cost : float option;
  verify_errors : int;
  verify_warnings : int;
  error : string option;
  kept : keep_reason;
}

type t = {
  capacity : int;
  sample_every : int;
  slow_keep_us : float;
  lock : Dsync.lock;  (** guards the ring and every mutable field *)
  ring : record option array;
  mutable next : int;  (** write position *)
  mutable stored : int;
  mutable seen : int;  (** events offered, kept or not *)
  mutable kept : int;
}

let create ?(capacity = 256) ?(sample_every = 1) ?(slow_keep_us = 0.0) () =
  if capacity <= 0 then invalid_arg "Event_log.create: capacity must be > 0";
  if sample_every <= 0 then
    invalid_arg "Event_log.create: sample_every must be > 0";
  {
    capacity;
    sample_every;
    slow_keep_us;
    lock = Dsync.named_lock "monitor.event_log";
    ring = Array.make capacity None;
    next = 0;
    stored = 0;
    seen = 0;
    kept = 0;
  }

let capacity t = t.capacity
let seen t = Dsync.protect t.lock (fun () -> t.seen)
let kept t = Dsync.protect t.lock (fun () -> t.kept)

(* Walk the executed operator tree for the transfer-boundary numbers:
   rows entering the middleware across TRANSFER^M, rows materialized back
   into the DBMS across TRANSFER^D (transfer dependencies), and the
   middleware-resident operator count. *)
let exec_shape (exec : Exec_plan.node) =
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
    exec;
  (!mw_operators, !transfers, !tm_rows, !td_rows)

let record_of_event ?(seq = 0) ?(kept = Sampled)
    (ev : Middleware.query_event) : record =
  let empty =
    {
      seq;
      at_us = ev.Middleware.started_us;
      kind = ev.Middleware.kind;
      sql = ev.Middleware.sql;
      fingerprint = None;
      signature = None;
      total_us = ev.Middleware.elapsed_us;
      parse_us = 0.0;
      optimize_us = 0.0;
      translate_us = 0.0;
      execute_us = 0.0;
      mw_exec_us = 0.0;
      transfer_us = 0.0;
      gather_wait_us = 0.0;
      parse_alloc_bytes = 0;
      optimize_alloc_bytes = 0;
      translate_alloc_bytes = 0;
      transfer_alloc_bytes = 0;
      mw_exec_alloc_bytes = 0;
      alloc_bytes = ev.Middleware.resources.Tango_obs.Runtime.alloc_bytes;
      minor_collections =
        ev.Middleware.resources.Tango_obs.Runtime.minor_collections;
      major_collections =
        ev.Middleware.resources.Tango_obs.Runtime.major_collections;
      promoted_words =
        ev.Middleware.resources.Tango_obs.Runtime.promoted_words;
      backends = [];
      trace = None;
      cache_hit = false;
      cache_class = "";
      rows = 0;
      mw_operators = 0;
      transfers = 0;
      tm_rows = 0;
      td_rows = 0;
      roundtrips = 0;
      q_rows = None;
      q_cost = None;
      verify_errors = 0;
      verify_warnings = 0;
      error = ev.Middleware.error;
      kept;
    }
  in
  match ev.Middleware.report with
  | None -> empty
  | Some r ->
      let mw_operators, transfers, tm_rows, td_rows =
        exec_shape r.Middleware.exec
      in
      let q_rows, q_cost =
        match r.Middleware.analysis with
        | Some a ->
            ( Some a.Tango_profile.Analyze.mean_q_rows,
              Some a.Tango_profile.Analyze.mean_q_cost )
        | None -> (None, None)
      in
      {
        empty with
        fingerprint =
          Some (Tango_volcano.Physical.fingerprint r.Middleware.physical);
        signature =
          Some (Tango_volcano.Physical.signature r.Middleware.physical);
        parse_us = r.Middleware.phases.Middleware.parse_us;
        optimize_us = r.Middleware.optimize_us;
        translate_us = r.Middleware.phases.Middleware.translate_us;
        execute_us = r.Middleware.execute_us;
        mw_exec_us = r.Middleware.phases.Middleware.mw_exec_us;
        transfer_us = r.Middleware.phases.Middleware.transfer_us;
        gather_wait_us = r.Middleware.phases.Middleware.gather_wait_us;
        parse_alloc_bytes =
          r.Middleware.phases.Middleware.res.Middleware.parse_res
            .Tango_obs.Runtime.alloc_bytes;
        optimize_alloc_bytes =
          r.Middleware.phases.Middleware.res.Middleware.optimize_res
            .Tango_obs.Runtime.alloc_bytes;
        translate_alloc_bytes =
          r.Middleware.phases.Middleware.res.Middleware.translate_res
            .Tango_obs.Runtime.alloc_bytes;
        transfer_alloc_bytes =
          r.Middleware.phases.Middleware.res.Middleware.transfer_alloc_bytes;
        mw_exec_alloc_bytes =
          r.Middleware.phases.Middleware.res.Middleware.mw_exec_alloc_bytes;
        backends = r.Middleware.backends;
        trace = r.Middleware.trace;
        cache_hit =
          Option.fold ~none:false
            ~some:(fun c -> c.Middleware.cache_hit)
            r.Middleware.cache;
        cache_class =
          Option.fold ~none:""
            ~some:(fun c -> c.Middleware.cache_class)
            r.Middleware.cache;
        rows = Tango_rel.Relation.cardinality r.Middleware.result;
        mw_operators;
        transfers;
        tm_rows;
        td_rows;
        roundtrips = r.Middleware.exec.Exec_plan.roundtrips;
        q_rows;
        q_cost;
        verify_errors = Tango_verify.Diag.count_errors r.Middleware.diagnostics;
        verify_warnings =
          List.length
            (List.filter
               (fun d -> not (Tango_verify.Diag.is_error d))
               r.Middleware.diagnostics);
        kept;
      }

(* An observation only counts as "tail" once the latency histogram has a
   meaningful shape, and only when it lands {e strictly above} the bucket
   holding the current p99 — a whole latency band beyond the estimated
   tail, so constant-latency workloads never trip it. *)
let tail_min_count = 32

let is_tail elapsed_us =
  Tango_obs.Histogram.count query_us >= tail_min_count
  && Tango_obs.Histogram.bucket_index elapsed_us
     > Tango_obs.Histogram.bucket_index
         (Tango_obs.Histogram.quantile query_us 0.99)

(* Head-based admission: failures, slow queries and tail outliers always
   keep; the rest keep every [sample_every]-th arrival (by 0-based
   ordinal, so the first event is always kept and the decision is
   deterministic).  [tail] is computed against the histogram {e before}
   this event is folded in. *)
let admission t ~tail (ev : Middleware.query_event) : keep_reason option =
  if ev.Middleware.error <> None then Some Failed
  else if t.slow_keep_us > 0.0 && ev.Middleware.elapsed_us >= t.slow_keep_us
  then Some Slow
  else if tail then Some Tail
  else if t.seen mod t.sample_every = 0 then Some Sampled
  else None

let observe t (ev : Middleware.query_event) : unit =
  Tango_obs.Counter.incr queries_total;
  if ev.Middleware.error <> None then Tango_obs.Counter.incr query_errors;
  (* Admission, seq assignment and the ring write happen atomically
     under the instance lock, so sequence numbers are unique and the
     ring never tears under concurrent observers.  The histogram guards
     itself (its own lock; no cycle — it never takes ours). *)
  let decision =
    Dsync.protect t.lock (fun () ->
        let decision =
          admission t ~tail:(is_tail ev.Middleware.elapsed_us) ev
        in
        (* Exemplars are attached only to {e kept} observations, so a
           bucket's exemplar always resolves to a record still
           addressable by seq. *)
        let exemplar =
          match decision with
          | None -> None
          | Some _ ->
              let trace_id =
                match ev.Middleware.report with
                | Some r ->
                    Tango_volcano.Physical.fingerprint r.Middleware.physical
                | None -> ev.Middleware.kind
              in
              Some
                {
                  Tango_obs.Histogram.ex_seq = t.seen;
                  ex_trace_id = trace_id;
                  ex_value = ev.Middleware.elapsed_us;
                  ex_at_us =
                    ev.Middleware.started_us +. ev.Middleware.elapsed_us;
                }
        in
        Tango_obs.Histogram.observe ?exemplar query_us
          ev.Middleware.elapsed_us;
        (match decision with
        | Some kept ->
            let r = record_of_event ~seq:t.seen ~kept ev in
            t.ring.(t.next) <- Some r;
            t.next <- (t.next + 1) mod t.capacity;
            if t.stored < t.capacity then t.stored <- t.stored + 1;
            t.kept <- t.kept + 1
        | None -> ());
        t.seen <- t.seen + 1;
        decision)
  in
  match decision with
  | Some _ -> Tango_obs.Counter.incr events_kept
  | None -> Tango_obs.Counter.incr events_sampled_out

let find t seq : record option =
  Dsync.protect t.lock (fun () ->
      let rec go i =
        if i >= t.stored then None
        else
          let idx = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
          match t.ring.(idx) with
          | Some r when r.seq = seq -> Some r
          | _ -> go (i + 1)
      in
      go 0)

let recent ?n t : record list =
  Dsync.protect t.lock (fun () ->
      let n = match n with Some n -> min n t.stored | None -> t.stored in
      let out = ref [] in
      for i = 0 to n - 1 do
        let idx = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
        match t.ring.(idx) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      List.rev !out)

let keep_reason_name = function
  | Sampled -> "sampled"
  | Slow -> "slow"
  | Failed -> "failed"
  | Tail -> "tail"

let backends_to_json (backends : (string * Middleware.backend_breakdown) list)
    : Tango_obs.Json.t =
  let open Tango_obs.Json in
  Obj
    (List.map
       (fun (name, (b : Middleware.backend_breakdown)) ->
         ( name,
           Obj
             [
               ("rows", Int b.Middleware.rows);
               ("bytes", Int b.Middleware.bytes);
               ("us", Float b.Middleware.us);
               ("wait_us", Float b.Middleware.wait_us);
               ("alloc_bytes", Int b.Middleware.alloc_bytes);
             ] ))
       backends)

let record_to_json (r : record) : Tango_obs.Json.t =
  let open Tango_obs.Json in
  let opt_str = function Some s -> String s | None -> Null in
  let opt_float = function Some f -> Float f | None -> Null in
  Obj
    [
      ("seq", Int r.seq);
      ("at_us", Float r.at_us);
      ("kind", String r.kind);
      ("sql", opt_str r.sql);
      ("fingerprint", opt_str r.fingerprint);
      ("plan", opt_str r.signature);
      ("total_us", Float r.total_us);
      ( "phases",
        Obj
          [
            ("parse_us", Float r.parse_us);
            ("optimize_us", Float r.optimize_us);
            ("translate_us", Float r.translate_us);
            ("mw_exec_us", Float r.mw_exec_us);
            ("transfer_us", Float r.transfer_us);
            ("gather_wait_us", Float r.gather_wait_us);
            ("parse_alloc_bytes", Int r.parse_alloc_bytes);
            ("optimize_alloc_bytes", Int r.optimize_alloc_bytes);
            ("translate_alloc_bytes", Int r.translate_alloc_bytes);
            ("transfer_alloc_bytes", Int r.transfer_alloc_bytes);
            ("mw_exec_alloc_bytes", Int r.mw_exec_alloc_bytes);
          ] );
      ( "gc",
        Obj
          [
            ("alloc_bytes", Int r.alloc_bytes);
            ("minor_collections", Int r.minor_collections);
            ("major_collections", Int r.major_collections);
            ("promoted_words", Int r.promoted_words);
          ] );
      ("optimize_us", Float r.optimize_us);
      ("execute_us", Float r.execute_us);
      ("backends", backends_to_json r.backends);
      ("cache_hit", Bool r.cache_hit);
      ("cache_class", String r.cache_class);
      ("rows", Int r.rows);
      ("mw_operators", Int r.mw_operators);
      ("transfers", Int r.transfers);
      ("tm_rows", Int r.tm_rows);
      ("td_rows", Int r.td_rows);
      ("roundtrips", Int r.roundtrips);
      ("q_rows", opt_float r.q_rows);
      ("q_cost", opt_float r.q_cost);
      ("verify_errors", Int r.verify_errors);
      ("verify_warnings", Int r.verify_warnings);
      ("error", opt_str r.error);
      ("kept", String (keep_reason_name r.kept));
    ]

let to_json ?n t : Tango_obs.Json.t =
  Tango_obs.Json.List (List.map record_to_json (recent ?n t))
