(** Prometheus text-format (exposition format 0.0.4 / OpenMetrics)
    rendering of {!Tango_obs.Registry} snapshots.

    Counters render as [counter] families; histograms render as
    [histogram] families with the cumulative [le=...] bucket series the
    registry carries ({!Tango_obs.Registry.histogram_stats.buckets}),
    plus [_sum] and [_count].  Metric names are derived from the dotted
    registry names ([client.roundtrips] -> [tango_client_roundtrips]),
    so every in-process metric is scrapeable without per-metric
    declarations.

    Two refinements over a plain character map:

    - per-backend counters ([backend.<name>.roundtrips] etc., arbitrary
      backend names) fold into one labeled family per tail —
      [tango_backend_roundtrips{backend="<name>"}] — with the name
      escaped as a label value instead of mangled into the metric name,
      so scrapes never see an illegal family and per-backend series stay
      aggregatable;
    - when [exemplars:true] (the OpenMetrics mode negotiated by
      [/metrics]), bucket samples carry the registry's last-per-bucket
      exemplars as OpenMetrics exemplar syntax
      ([... # {seq="…",trace_id="…"} value timestamp]); the endpoint
      closes the exposition with {!eof} after any appended gauges. *)

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

let le_label bound =
  if Float.is_finite bound then Printf.sprintf "%g" bound else "+Inf"

(* Sample values: integral floats print without a fraction (Prometheus
   parses either); non-finite values print as Go-style literals. *)
let sample_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

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

(* [backend.<name>.<tail>] -> [Some (name, tail)].  Backend names may
   themselves contain dots, so the tail is the segment after the *last*
   dot. *)
let backend_counter raw =
  let prefix = "backend." in
  let plen = String.length prefix in
  if String.length raw > plen && String.sub raw 0 plen = prefix then
    match String.rindex_opt raw '.' with
    | Some i when i > plen - 1 && i < String.length raw - 1 ->
        let name = String.sub raw plen (i - plen) in
        let tail = String.sub raw (i + 1) (String.length raw - i - 1) in
        if name = "" then None else Some (name, tail)
    | _ -> None
  else None

let render_counter b ?namespace (name, value) =
  let m = metric_name ?namespace name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m value)

(* One labeled family per backend-counter tail:
   # TYPE tango_backend_roundtrips counter
   tango_backend_roundtrips{backend="shard0"} 12
   tango_backend_roundtrips{backend="shard1"} 9 *)
let render_backend_counters b ?namespace groups =
  let tails =
    List.sort_uniq compare (List.map (fun (_, tail, _) -> tail) groups)
  in
  List.iter
    (fun tail ->
      let m = metric_name ?namespace ("backend_" ^ tail) in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
      List.iter
        (fun (name, t, value) ->
          if String.equal t tail then
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" m
                 (labels_fragment [ ("backend", name) ])
                 value))
        groups)
    tails

(* OpenMetrics exemplar suffix: [ # {seq="…",trace_id="…"} value ts]
   with the timestamp in seconds. *)
let exemplar_fragment (ex : Histogram.exemplar) =
  Printf.sprintf " # {seq=\"%d\",trace_id=\"%s\"} %s %s" ex.Histogram.ex_seq
    (escape_label_value ex.Histogram.ex_trace_id)
    (sample_value ex.Histogram.ex_value)
    (Printf.sprintf "%.6f" (ex.Histogram.ex_at_us /. 1e6))

let render_histogram b ?namespace ?(exemplars = false)
    (name, (h : Registry.histogram_stats)) =
  let m = metric_name ?namespace name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
  List.iter
    (fun (bound, c) ->
      let ex =
        if exemplars then
          match List.assoc_opt bound h.Registry.exemplars with
          | Some e -> exemplar_fragment e
          | None -> ""
        else ""
      in
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d%s\n" m (le_label bound) c ex))
    h.Registry.buckets;
  Buffer.add_string b
    (Printf.sprintf "%s_sum %s\n" m (sample_value h.Registry.sum));
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.Registry.count)

(* Process-runtime gauges: heap shape plus one gauge set per domain
   that has published its counters (tango_gc_domain_*{domain="0"}). *)
let runtime_gauges ?namespace () =
  let b = Buffer.create 1024 in
  let heap = Runtime.heap () in
  Buffer.add_string b
    (gauge ?namespace ~name:"gc.heap_words"
       (float_of_int heap.Runtime.heap_words));
  Buffer.add_string b
    (gauge ?namespace ~name:"gc.top_heap_words"
       (float_of_int heap.Runtime.top_heap_words));
  Buffer.add_string b
    (gauge ?namespace ~name:"gc.compactions"
       (float_of_int heap.Runtime.compactions));
  let domains = Runtime.domains () in
  let family tail value_of =
    let m = metric_name ?namespace ("gc_domain_" ^ tail) in
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" m);
    List.iter
      (fun (d : Runtime.domain_stats) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" m
             (labels_fragment [ ("domain", string_of_int d.Runtime.domain) ])
             (value_of d)))
      domains
  in
  if domains <> [] then begin
    family "alloc_bytes" (fun d -> d.Runtime.d_alloc_bytes);
    family "minor_collections" (fun d -> d.Runtime.d_minor_collections);
    family "major_collections" (fun d -> d.Runtime.d_major_collections);
    family "promoted_words" (fun d -> d.Runtime.d_promoted_words)
  end;
  Buffer.contents b

let render ?namespace ?(exemplars = false) (s : Registry.snapshot) =
  let b = Buffer.create 4096 in
  let backend, plain =
    List.partition_map
      (fun (name, value) ->
        match backend_counter name with
        | Some (bname, tail) -> Either.Left (bname, tail, value)
        | None -> Either.Right (name, value))
      s.Registry.counters
  in
  List.iter (render_counter b ?namespace) plain;
  render_backend_counters b ?namespace backend;
  List.iter (render_histogram b ?namespace ~exemplars) s.Registry.histograms;
  Buffer.contents b

(* The OpenMetrics terminator — appended by the endpoint as the very
   last line, after any gauges that follow {!render}'s output. *)
let eof = "# EOF\n"

let content_type = "text/plain; version=0.0.4; charset=utf-8"

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"
