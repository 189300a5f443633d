(** Per-query event log: a fixed-capacity ring buffer of structured
    records fed from the middleware pipeline.  Every observed event is
    stored, oldest evicted first once the ring is full.  Every event also
    feeds the registry's aggregate counters [monitor.queries] (every
    observed run) and [monitor.query_errors] (runs that raised), and the
    [monitor.query_us] end-to-end latency histogram. *)

type record = {
  seq : int;  (** arrival ordinal (0-based, counts evicted events too) *)
  event : Tango_core.Middleware.query_event;
      (** the pipeline's event as observed; its per-query numbers are
          derived ({!Tango_core.Middleware.breakdown}) when rendered *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) bounds the ring, oldest evicted first. *)

val seen : t -> int
(** Events observed so far, evicted ones included. *)

val observe : t -> Tango_core.Middleware.query_event -> unit
(** Feed one pipeline event: updates the aggregate metrics and appends
    the record.  The function to hand to
    {!Tango_core.Middleware.set_query_observer}. *)

val find : t -> int -> record option
(** The stored record with this [seq], if it has not been evicted. *)

val recent : ?n:int -> t -> record list
(** Up to [n] (default: all stored) most recent records, newest first. *)

val run_json :
  rows:int -> _ Tango_core.Middleware.run option -> (string * Tango_obs.Json.t) list
(** The run summary — [rows], [optimize_us], [execute_us], [fingerprint],
    [plan], [cache] (the cache class or [null]) — that both a record and
    the [POST /query] response render; nulls and zeros for a failed
    run. *)

val record_to_json : record -> Tango_obs.Json.t
(** The record in full: the run summary, the phase breakdown and
    per-phase allocation, whole-run GC counts, per-backend attribution,
    transfer counts, q-errors and verification finding counts. *)

val to_json : ?n:int -> t -> Tango_obs.Json.t
(** JSON array of {!recent}, newest first. *)
