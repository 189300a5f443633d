(* Per-layer accounting of a traced run: named sums fed by the replay,
   the spans it records, and the per-layer metrics derived from them.

   Time metrics named [<layer>.<x>_us] are microseconds per replayed op:
   the work the pipeline really did for that op, so on a plan-cache hit
   parse and optimize charge nothing.  Their sum over all layers, divided
   by the ops' own latency, is [trace.coverage]. *)

type span = {
  id : int;
  op : int;
  layer : string;
  parent : int;  (** [-1] for a root *)
  start_us : float;
  end_us : float;
}

type t = {
  sums : (string, float) Hashtbl.t;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
}

let create () = { sums = Hashtbl.create 64; spans = []; next_id = 0 }

let get t key = Option.value ~default:0.0 (Hashtbl.find_opt t.sums key)
let add t key v = Hashtbl.replace t.sums key (get t key +. v)
let incr t key = add t key 1.0

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* [id] lets a root span be recorded after its children, which name it
   as their parent. *)
let record t ?id ~op ~parent layer start_us end_us =
  let id = match id with Some id -> id | None -> fresh_id t in
  t.spans <- { id; op; layer; parent; start_us; end_us } :: t.spans;
  id

(* Time [f] as a span of [layer]; returns its value and duration (µs). *)
let span t ~op ~parent layer f =
  let start_us = Common.mono_us () in
  let v = f () in
  let end_us = Common.mono_us () in
  ignore (record t ~op ~parent layer start_us end_us);
  (v, end_us -. start_us)

(* The per-op totals a workload feeds after each traced op: its latency,
   the layer self-times charged to it, and the replay's own wall time. *)
let op_done t ~op_us ~charged_us ~replay_us (gc : Tango_obs.Runtime.delta) =
  incr t "ops";
  add t "op_us" op_us;
  add t "charged_us" charged_us;
  add t "replay_us" replay_us;
  add t "gc.alloc_bytes" (float_of_int gc.Tango_obs.Runtime.alloc_bytes);
  add t "gc.minor" (float_of_int gc.Tango_obs.Runtime.minor_collections);
  add t "gc.major" (float_of_int gc.Tango_obs.Runtime.major_collections)

(* Plan-cache counters over the traced ops, from two stats readings. *)
let cache_delta t ~reads (before : Tango_cache.Plan_cache.stats)
    (after : Tango_cache.Plan_cache.stats) =
  let d f = float_of_int (f after - f before) in
  let module P = Tango_cache.Plan_cache in
  add t "cache.hits" (d (fun s -> s.P.hits));
  add t "cache.misses" (d (fun s -> s.P.misses));
  add t "cache.template_hits" (d (fun s -> s.P.template_hits));
  add t "cache.invalidations" (d (fun s -> s.P.invalidations));
  add t "cache.reads" (float_of_int reads)

(* XXL algorithms with per-tuple metrics, and the algorithms whose cost
   formula is compared with their measured self time: those the
   workloads' plans use under the default configuration.  (No workload
   plan picks MERGEJOIN^M, DUPELIM^M, COALESCE^M, FILTER^M or
   TRANSFER^D; their replayed time still counts toward coverage.) *)
let xxl_algorithms = [ "sort_m"; "taggr_m"; "tjoin_m"; "project_m" ]
let cost_algorithms = [ "transfer_m"; "sort_m"; "taggr_m"; "tjoin_m"; "gather_m" ]

(* (name, unit, better, value) for every per-layer metric. *)
let metrics t : (string * string * string * float) list =
  let g = get t and r = Common.ratio in
  let ops = g "ops" in
  let per_op key = r (g key) ops in
  let q_error measured predicted =
    (* q-error of the cost formula: max(m/p, p/m); 0 when unused *)
    if measured <= 0.0 || predicted <= 0.0 then 0.0
    else Float.max (measured /. predicted) (predicted /. measured)
  in
  let time name = (name, "us", "lower", per_op name) in
  [
    time "sql.parse_us";
    time "sql.parameterize_us";
    time "tsql.compile_us";
    time "volcano.optimize_us";
    ("volcano.memo_classes", "count", "lower", r (g "volcano.classes") (g "volcano.calls"));
    ("volcano.memo_elements", "count", "lower", r (g "volcano.elements") (g "volcano.calls"));
    ("volcano.considered", "count", "lower", r (g "volcano.considered") (g "volcano.calls"));
    ( "cache.hit_ratio", "ratio", "higher",
      r (g "cache.hits") (g "cache.hits" +. g "cache.misses") );
    ("cache.template_hit_ratio", "ratio", "higher", r (g "cache.template_hits") (g "cache.reads"));
    ("cache.invalidations", "count", "lower", g "cache.invalidations");
    time "cache.instantiate_us";
    time "stats.collect_us";
    time "sqlgen.translate_us";
    time "core.build_us";
    ("core.overhead_us", "us", "lower", r (g "op_us" -. g "charged_us") ops);
    time "dbms.execute_us";
    ("dbms.rows_per_stmt", "count", "lower", r (g "dbms.rows") (g "dbms.stmts"));
    ( "dbms.buffer_hit_ratio", "ratio", "higher",
      r (g "dbms.pool_hits") (g "dbms.pool_hits" +. g "dbms.pool_misses") );
    ("dbms.insert_us", "us", "lower", r (g "dbms.insert_us") (g "writes"));
    ("dbms.analyze_us", "us", "lower", r (g "dbms.analyze_us") (g "writes"));
    ("transfer.us_per_tuple", "us/tuple", "lower", r (g "transfer.us") (g "transfer.tuples"));
    ("transfer.bytes_per_tuple", "B/tuple", "lower", r (g "transfer.bytes") (g "transfer.tuples"));
    ( "transfer.alloc_bytes_per_tuple", "B/tuple", "lower",
      r (g "transfer.alloc_bytes") (g "transfer.tuples") );
    ("transfer.roundtrips_per_op", "count", "lower", per_op "transfer.roundtrips");
    ("transfer.tuples_per_op", "count", "lower", per_op "transfer.tuples");
  ]
  @ List.concat_map
      (fun a ->
        let k s = Printf.sprintf "xxl.%s.%s" a s in
        [
          (k "us_per_tuple", "us/tuple", "lower", r (g (k "us")) (g (k "in")));
          (k "alloc_bytes_per_tuple", "B/tuple", "lower", r (g (k "alloc")) (g (k "in")));
          (k "input_tuples", "count", "lower", per_op (k "in"));
        ])
      xxl_algorithms
  @ List.map
      (fun a ->
        ( "cost.model_error." ^ a, "ratio", "lower",
          q_error (g ("cost.measured." ^ a)) (g ("cost.predicted." ^ a)) ))
      cost_algorithms
  @ [
      ("gather.us_per_tuple", "us/tuple", "lower", r (g "gather.us") (g "gather.tuples"));
      ("gather.ways", "count", "lower", r (g "gather.ways") (g "gather.calls"));
      ("gather.pruned_shard_ratio", "ratio", "higher", r (g "gather.pruned") (g "gather.calls"));
      ("monitor.handler_us", "us", "lower", r (g "monitor.handler_us") (g "requests"));
      ("monitor.scrape_us", "us", "lower", r (g "monitor.scrape_us") (g "scrapes"));
      ("monitor.response_bytes", "B", "lower", r (g "monitor.response_bytes") (g "requests"));
      ("http.overhead_us", "us", "lower", r (g "http.overhead_us") (g "requests"));
      ("gc.alloc_bytes_per_op", "B", "lower", per_op "gc.alloc_bytes");
      ("gc.minor_collections_per_op", "count", "lower", per_op "gc.minor");
      ("gc.major_collections_per_op", "count", "lower", per_op "gc.major");
      ("trace.overhead_ratio", "ratio", "lower", r (g "replay_us") (g "op_us"));
      ("trace.coverage", "ratio", "higher", r (g "charged_us") (g "op_us"));
    ]

(* The spans as a JSON document: {op, layer, parent, start, end}. *)
let spans_json ~workload t =
  let open Tango_obs.Json in
  Obj
    [
      ("workload", String workload);
      ( "spans",
        List
          (List.rev_map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("op", Int s.op);
                   ("layer", String s.layer);
                   ("parent", Int s.parent);
                   ("start_us", Float s.start_us);
                   ("end_us", Float s.end_us);
                 ])
             t.spans) );
    ]
