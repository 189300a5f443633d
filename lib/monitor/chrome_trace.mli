(** Chrome trace-event JSON export of {!Tango_obs.Trace} spans — opens
    directly in [about:tracing] / Perfetto.

    Timestamps are reconstructed from durations: a span starts where its
    parent starts, and siblings are laid out back to back in execution
    order (children of a pipeline span run sequentially, so nesting and
    relative width are preserved). *)

val events :
  ?pid:int ->
  ?tid:int ->
  ?start_us:float ->
  Tango_obs.Trace.span ->
  Tango_obs.Json.t list
(** One complete ("ph":"X") event per span, preorder; [ts]/[dur] in
    microseconds, span attributes as [args].  [pid]/[tid] default to 1,
    [start_us] (the root timestamp) to 0. *)

val to_json :
  ?pid:int ->
  ?tid:int ->
  ?start_us:float ->
  ?backends:(string * float * float) list ->
  Tango_obs.Trace.span ->
  Tango_obs.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  [backends]
    (default none) appends one trace lane per backend after the span
    events: [(name, transfer_us, wait_us)] becomes a thread (tids 2, 3,
    ... — tid 1 is the pipeline) labeled ["backend:<name>"] via a
    thread_name metadata event, holding a ["transfer"] slice from
    [start_us] followed by a ["gather-wait"] slice.  Lane order follows
    list order, so first-touch attribution order is preserved. *)

val to_string :
  ?pid:int ->
  ?tid:int ->
  ?start_us:float ->
  ?backends:(string * float * float) list ->
  Tango_obs.Trace.span ->
  string
