(** Prometheus text-format (exposition format 0.0.4) rendering of
    {!Tango_obs.Registry} snapshots — counters as [counter] families,
    histograms as [histogram] families with cumulative [le=...] buckets,
    [_sum] and [_count] — and of the backends' boundary meters. *)

val default_namespace : string
(** ["tango"] — prepended to every metric name. *)

val metric_name : ?namespace:string -> string -> string
(** Legal Prometheus metric name for a dotted registry name:
    [metric_name "monitor.queries" = "tango_monitor_queries"].
    Characters outside [[a-zA-Z0-9_]] become underscores. *)

val escape_label_value : string -> string
(** Escape backslash, double quote and newline for use inside a
    Prometheus label value. *)

val le_label : float -> string
(** Bucket bound rendering: ["+Inf"] for [infinity], integral bounds
    without a fraction or exponent, so every bound parses back to
    exactly itself. *)

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
    [tango_gc_top_heap_words] / [tango_gc_compactions]. *)

val backends : Tango_dbms.Backend.t list -> string
(** The boundary meters of these backends as labeled counter families,
    [tango_backend_{roundtrips,tuples_shipped,bytes_shipped,queries,
    bulk_loads}{backend="<name>"}], one sample per backend, each read
    from its {!Tango_dbms.Backend} accessor. *)

val render : ?namespace:string -> Tango_obs.Registry.snapshot -> string
(** The whole snapshot as exposition text: counters, then histograms —
    each family preceded by its [# TYPE] line. *)

val content_type : string
(** The HTTP [Content-Type] for the exposition (0.0.4 text format). *)
