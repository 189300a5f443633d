(** The monitoring surface behind [tango_cli serve]: wires a middleware
    session to an {!Event_log} and an {!Slo} tracker, and dispatches
    HTTP requests to the monitoring endpoints. *)

type t

val create : ?log:Event_log.t -> ?slo:Slo.t -> Tango_core.Middleware.t -> t
(** Installs a query observer on the session
    ({!Tango_core.Middleware.set_query_observer}) feeding the event log
    and the SLO tracker; defaults: [Event_log.create ()],
    [Slo.create ()], a fresh {!Watchdog}. *)

val slo : t -> Slo.t
val watchdog : t -> Watchdog.t

val handler : t -> Http.request -> Http.response
(** Dispatch:

    - [GET /healthz] — liveness as JSON (status, uptime, build identity
      — OCaml version and git describe — shard count, queries seen);
      bare ["ok\n"] under [?plain=1];
    - [GET /metrics] — Prometheus 0.0.4 exposition of the registry
      snapshot, the [tango_backend_*{backend="…"}] meters of the
      session topology's backends, SLO burn-rate gauges, an uptime
      gauge, a [tango_build_info] gauge and the [tango_gc_*] heap
      gauges.  Every scrape gets the 0.0.4 text format, whatever its
      [Accept] header;
    - [GET /slo] — the burn-rate verdict as JSON;
    - [GET /queries?n=K] — up to [K] (default 20) most recent event-log
      records, newest first;
    - [GET /queries/<seq>] — the kept record with that seq in full —
      phase breakdown, per-backend attribution, and (when traced) its
      Chrome trace with one lane per backend (404 when not kept or
      evicted);
    - [GET /debug/watchdog] — the {!Watchdog} drill-down verdict:
      correlated signals plus the dominant backend and phase of the
      latency tail;
    - [GET /trace] — Chrome trace JSON of the last pipeline run (404
      when tracing is off or nothing ran yet);
    - [POST /query] — run the temporal SQL in the body; 200 with a JSON
      summary (rows, times, plan fingerprint), or 400 with
      [{"error": ...}] on lex/parse/compile/execution failures.

    Unknown paths are 404, wrong methods on known paths 405. *)
