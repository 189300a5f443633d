(** Prometheus text-format (exposition format 0.0.4) rendering of
    {!Tango_obs.Registry} snapshots: counters as [counter] families,
    histograms as [histogram] families with cumulative [le=...] buckets,
    [_sum] and [_count]. *)

val default_namespace : string
(** ["tango"] — prepended to every metric name. *)

val metric_name : ?namespace:string -> string -> string
(** Legal Prometheus metric name for a dotted registry name:
    [metric_name "client.roundtrips" = "tango_client_roundtrips"].
    Characters outside [[a-zA-Z0-9_]] become underscores. *)

val escape_label_value : string -> string
(** Escape backslash, double quote and newline for use inside a
    Prometheus label value. *)

val backend_counter : string -> (string * string) option
(** [backend_counter "backend.<name>.<tail>"] is [Some (name, tail)];
    [None] for any other shape.  Backend names may contain dots — the
    tail is the segment after the last dot. *)

val le_label : float -> string
(** Bucket bound rendering: ["+Inf"] for [infinity], shortest decimal
    otherwise. *)

val gauge :
  ?namespace:string ->
  name:string ->
  ?labels:(string * string) list ->
  float ->
  string
(** One complete gauge family ([# TYPE] line plus a single sample) —
    for values that are not registry counters, e.g. SLO burn rates. *)

val runtime_gauges : ?namespace:string -> unit -> string
(** Process-runtime gauges: [tango_gc_heap_words] /
    [tango_gc_top_heap_words] / [tango_gc_compactions], plus
    [tango_gc_domain_*{domain="<id>"}] gauge families for every domain
    that has published counters via {!Tango_obs.Runtime.touch}. *)

val render :
  ?namespace:string -> ?exemplars:bool -> Tango_obs.Registry.snapshot -> string
(** The whole snapshot as exposition text: plain counters, then
    per-backend counters folded into labeled [tango_backend_<tail>]
    families, then histograms — each family preceded by its [# TYPE]
    line.  With [exemplars:true] (default false) bucket samples carry
    OpenMetrics exemplar syntax (a [#]-prefixed labelset, value and
    timestamp after the sample); the caller appends {!eof} last. *)

val eof : string
(** ["# EOF\n"] — the OpenMetrics exposition terminator; must be the
    very last line, so the endpoint appends it after any extra gauges. *)

val content_type : string
(** The HTTP [Content-Type] for {!render} output (0.0.4 text format). *)

val openmetrics_content_type : string
(** The HTTP [Content-Type] for exemplar-mode {!render} output. *)
