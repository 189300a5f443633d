(** Prometheus text-format (exposition format 0.0.4) rendering of
    {!Tango_obs.Registry} snapshots and of the backends' boundary meters.

    Counters render as [counter] families; histograms render as
    [histogram] families with the cumulative [le=...] bucket series the
    registry carries ({!Tango_obs.Registry.histogram_stats.buckets}),
    plus [_sum] and [_count].  Metric names are derived from the dotted
    registry names ([monitor.queries] -> [tango_monitor_queries]), so
    every in-process metric is scrapeable without per-metric
    declarations.

    The boundary meters live on each {!Tango_dbms.Backend.t}, not in the
    registry: {!backends} renders them as one labeled family per meter —
    [tango_backend_roundtrips{backend="<name>"}] — with the name escaped
    as a label value, so per-backend series stay aggregatable. *)

open Tango_obs

let default_namespace = "tango"

(* Prometheus metric names are restricted to [a-zA-Z0-9_] here (we do
   not emit recording-rule colons); the namespace prefix guarantees a
   legal first character. *)
let metric_name ?(namespace = default_namespace) raw =
  let b = Buffer.create (String.length raw + String.length namespace + 1) in
  if namespace <> "" then begin
    Buffer.add_string b namespace;
    Buffer.add_char b '_'
  end;
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    raw;
  Buffer.contents b

(* Sample values: integral floats print without a fraction (Prometheus
   parses either); non-finite values print as Go-style literals. *)
let sample_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Bucket bounds print like sample values: [%g] would round 2^20 to
   "1.04858e+06", a different bound. *)
let le_label = sample_value

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let labels_fragment = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let gauge ?namespace ~name ?(labels = []) value =
  let m = metric_name ?namespace name in
  Printf.sprintf "# TYPE %s gauge\n%s%s %s\n" m m (labels_fragment labels)
    (sample_value value)

let render_counter b ?namespace (name, value) =
  let m = metric_name ?namespace name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m value)

let render_histogram b ?namespace (name, (h : Registry.histogram_stats)) =
  let m = metric_name ?namespace name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
  List.iter
    (fun (bound, c) ->
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (le_label bound) c))
    h.Registry.buckets;
  Buffer.add_string b
    (Printf.sprintf "%s_sum %s\n" m (sample_value h.Registry.sum));
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.Registry.count)

(* Process-runtime gauges: the heap's shape. *)
let runtime_gauges ?namespace () =
  let heap = Runtime.heap () in
  String.concat ""
    [
      gauge ?namespace ~name:"gc.heap_words"
        (float_of_int heap.Runtime.heap_words);
      gauge ?namespace ~name:"gc.top_heap_words"
        (float_of_int heap.Runtime.top_heap_words);
      gauge ?namespace ~name:"gc.compactions"
        (float_of_int heap.Runtime.compactions);
    ]

(* One labeled family per boundary meter:
   # TYPE tango_backend_roundtrips counter
   tango_backend_roundtrips{backend="shard0"} 12
   tango_backend_roundtrips{backend="shard1"} 9 *)
let backends (bs : Tango_dbms.Backend.t list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (tail, meter) ->
      let m = metric_name ("backend_" ^ tail) in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
      List.iter
        (fun backend ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" m
               (labels_fragment [ ("backend", Tango_dbms.Backend.name backend) ])
               (meter backend)))
        bs)
    Tango_dbms.Backend.
      [
        ("roundtrips", roundtrips);
        ("tuples_shipped", tuples_shipped);
        ("bytes_shipped", bytes_shipped);
        ("queries", queries);
        ("bulk_loads", bulk_loads);
      ];
  Buffer.contents b

let render ?namespace (s : Registry.snapshot) =
  let b = Buffer.create 4096 in
  List.iter (render_counter b ?namespace) s.Registry.counters;
  List.iter (render_histogram b ?namespace) s.Registry.histograms;
  Buffer.contents b

let content_type = "text/plain; version=0.0.4; charset=utf-8"
