(** Chrome trace-event JSON export of {!Tango_obs.Trace} spans — opens
    directly in [about:tracing] / Perfetto.

    Timestamps are reconstructed from durations: a span starts where its
    parent starts, and siblings are laid out back to back in execution
    order (children of a pipeline span run sequentially, so nesting and
    relative width are preserved). *)

val events : Tango_obs.Trace.span -> Tango_obs.Json.t list
(** One complete ("ph":"X") event per span, preorder, on pid 1 and tid
    1; [ts]/[dur] in microseconds with the root at 0, span attributes
    as [args]. *)

val to_json :
  ?backends:(string * float * float) list ->
  Tango_obs.Trace.span ->
  Tango_obs.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  [backends]
    (default none) appends one trace lane per backend after the span
    events: [(name, transfer_us, wait_us)] becomes a thread (tids 2, 3,
    ... — tid 1 is the pipeline) labeled ["backend:<name>"] via a
    thread_name metadata event, holding a ["transfer"] slice from
    0 followed by a ["gather-wait"] slice.  Lane order follows
    list order, so first-touch attribution order is preserved. *)
