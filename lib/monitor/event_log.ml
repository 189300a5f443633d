(** Per-query event log: a fixed-capacity ring buffer of structured
    records fed from the middleware pipeline
    ({!Tango_core.Middleware.set_query_observer}).

    Every observed event is stored; when the ring is full the oldest
    record is evicted.  Every event also feeds the aggregate metrics
    [monitor.queries], [monitor.query_errors] and the [monitor.query_us]
    latency histogram, which is what [/metrics] exports buckets from.

    Ring writes and reads run under the instance's lock; sequence
    numbers are assigned under the lock and stay unique. *)

open Tango_core

(* aggregate metrics, fed on every event *)
let queries_total = Tango_obs.Counter.make "monitor.queries"
let query_errors = Tango_obs.Counter.make "monitor.query_errors"
let query_us = Tango_obs.Histogram.make "monitor.query_us"

(* An event is stored as observed: the derived numbers are computed
   when it is rendered, not when it arrives. *)
type record = { seq : int; event : Middleware.query_event }

type t = {
  capacity : int;
  lock : Mutex.t;  (** guards the ring and every mutable field *)
  ring : record option array;
  mutable next : int;  (** write position *)
  mutable stored : int;
  mutable seen : int;  (** events observed, evicted ones included *)
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Event_log.create: capacity must be > 0";
  {
    capacity;
    lock = Mutex.create ();
    ring = Array.make capacity None;
    next = 0;
    stored = 0;
    seen = 0;
  }

let seen t = Mutex.protect t.lock (fun () -> t.seen)

let observe t (ev : Middleware.query_event) : unit =
  Tango_obs.Counter.incr queries_total;
  if ev.Middleware.error <> None then Tango_obs.Counter.incr query_errors;
  Tango_obs.Histogram.observe query_us ev.Middleware.elapsed_us;
  (* seq assignment and the ring write happen atomically under the
     instance lock, so sequence numbers are unique and the ring never
     tears under concurrent observers *)
  Mutex.protect t.lock (fun () ->
      t.ring.(t.next) <- Some { seq = t.seen; event = ev };
      t.next <- (t.next + 1) mod t.capacity;
      if t.stored < t.capacity then t.stored <- t.stored + 1;
      t.seen <- t.seen + 1)

let find t seq : record option =
  Mutex.protect t.lock (fun () ->
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
  Mutex.protect t.lock (fun () ->
      let n = match n with Some n -> min n t.stored | None -> t.stored in
      let out = ref [] in
      for i = 0 to n - 1 do
        let idx = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
        match t.ring.(idx) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      List.rev !out)

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

(* [f x] for [Some x]; [none] for a failed run's missing record. *)
let field o none f = Option.fold ~none ~some:f o

(* The summary [POST /query] answers with, rendered from one run (or
   its absence, for a failed run) so the response and the event log
   cannot disagree. *)
let run_json ~rows (run : _ Middleware.run option) :
    (string * Tango_obs.Json.t) list =
  let open Tango_obs.Json in
  let field none f = field run none f in
  [
    ("rows", Int rows);
    ("optimize_us", Float (field 0.0 (fun r -> r.Middleware.optimize_us)));
    ("execute_us", Float (field 0.0 (fun r -> r.Middleware.execute_us)));
    ( "fingerprint",
      field Null (fun r ->
          String (Tango_volcano.Physical.fingerprint r.Middleware.physical)) );
    ( "plan",
      field Null (fun r ->
          String (Tango_volcano.Physical.signature r.Middleware.physical)) );
    ( "cache",
      match Option.bind run (fun r -> r.Middleware.cache) with
      | Some c -> String c.Middleware.cache_class
      | None -> Null );
  ]

let record_to_json (r : record) : Tango_obs.Json.t =
  let open Tango_obs.Json in
  let ev = r.event in
  let run = ev.Middleware.run in
  let b = Option.map Middleware.breakdown run in
  let opt_str = function Some s -> String s | None -> Null in
  let opt_float = function Some f -> Float f | None -> Null in
  let run_us f = Float (field run 0.0 f) and run_int f = Int (field run 0 f) in
  let b_us f = Float (field b 0.0 f) and b_int f = Int (field b 0 f) in
  let gc = ev.Middleware.gc in
  Obj
    ([
       ("seq", Int r.seq);
       ("at_us", Float ev.Middleware.started_us);
       ("kind", String ev.Middleware.kind);
       ("sql", opt_str ev.Middleware.sql);
       ("total_us", Float ev.Middleware.elapsed_us);
       ( "phases",
         Obj
           [
             ("parse_us", run_us (fun r -> r.Middleware.parse_us));
             ("optimize_us", run_us (fun r -> r.Middleware.optimize_us));
             ("translate_us", run_us (fun r -> r.Middleware.translate_us));
             ("mw_exec_us", b_us (fun b -> b.Middleware.mw_exec_us));
             ("transfer_us", b_us (fun b -> b.Middleware.transfer_us));
             ("gather_wait_us", b_us (fun b -> b.Middleware.gather_wait_us));
             ( "parse_alloc_bytes",
               run_int (fun r -> r.Middleware.parse_alloc_bytes) );
             ( "optimize_alloc_bytes",
               run_int (fun r -> r.Middleware.optimize_alloc_bytes) );
             ( "translate_alloc_bytes",
               run_int (fun r -> r.Middleware.translate_alloc_bytes) );
             ( "transfer_alloc_bytes",
               b_int (fun b -> b.Middleware.transfer_alloc_bytes) );
             ( "mw_exec_alloc_bytes",
               b_int (fun b -> b.Middleware.mw_exec_alloc_bytes) );
           ] );
       ( "gc",
         Obj
           [
             ("alloc_bytes", Int gc.Tango_obs.Runtime.alloc_bytes);
             ("minor_collections", Int gc.Tango_obs.Runtime.minor_collections);
             ("major_collections", Int gc.Tango_obs.Runtime.major_collections);
             ("promoted_words", Int gc.Tango_obs.Runtime.promoted_words);
           ] );
       ( "backends",
         backends_to_json (field run [] (fun r -> r.Middleware.backends)) );
       ("mw_operators", b_int (fun b -> b.Middleware.mw_operators));
       ("transfers", b_int (fun b -> b.Middleware.transfers));
       ("tm_rows", b_int (fun b -> b.Middleware.tm_rows));
       ("td_rows", b_int (fun b -> b.Middleware.td_rows));
       ( "roundtrips",
         run_int (fun r -> r.Middleware.exec.Exec_plan.roundtrips) );
       ("q_rows", opt_float (Option.bind b (fun b -> b.Middleware.q_rows)));
       ("q_cost", opt_float (Option.bind b (fun b -> b.Middleware.q_cost)));
       ("verify_errors", b_int (fun b -> b.Middleware.verify_errors));
       ("verify_warnings", b_int (fun b -> b.Middleware.verify_warnings));
       ("error", opt_str ev.Middleware.error);
     ]
    @ run_json ~rows:(field run 0 (fun r -> r.Middleware.result)) run)

let to_json ?n t : Tango_obs.Json.t =
  Tango_obs.Json.List (List.map record_to_json (recent ?n t))
