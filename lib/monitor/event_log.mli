(** Per-query event log: a fixed-capacity ring buffer of structured
    records fed from the middleware pipeline, with deterministic
    head-based sampling and always-keep overrides for failures and slow
    queries.  Every event (kept or not) also feeds the registry's
    aggregate counters [monitor.queries] (every observed run),
    [monitor.query_errors] (runs that raised), [monitor.events_kept]
    and [monitor.events_sampled_out], and the [monitor.query_us]
    end-to-end latency histogram. *)

(** Why a record was admitted. *)
type keep_reason =
  | Sampled  (** kept by the 1-in-[sample_every] head sample *)
  | Slow  (** at least [slow_keep_us] slow — always kept *)
  | Failed  (** the pipeline raised — always kept *)
  | Tail
      (** landed strictly above the latency bucket holding the current
          p99 (with at least 32 prior observations) — always kept, so
          the latency tail is always represented in the ring *)

type record = {
  seq : int;  (** arrival ordinal (0-based, counts dropped events too) *)
  kept : keep_reason;
  event : Tango_core.Middleware.query_event;
      (** the pipeline's event as observed; its per-query numbers are
          derived ({!Tango_core.Middleware.breakdown}) when rendered *)
}

type t

val create :
  ?capacity:int -> ?sample_every:int -> ?slow_keep_us:float -> unit -> t
(** [capacity] (default 256) bounds the ring, oldest evicted first.
    [sample_every] (default 1 = keep everything) keeps each
    [sample_every]-th arrival by 0-based ordinal.  [slow_keep_us]
    (default 0 = off) always keeps events at least this slow, regardless
    of sampling; failures are always kept. *)

val seen : t -> int
(** Events offered so far, kept or not. *)

val kept : t -> int
(** Records admitted so far (>= stored: eviction does not decrement). *)

val observe : t -> Tango_core.Middleware.query_event -> unit
(** Feed one pipeline event: updates the aggregate metrics, applies
    admission, and appends the record when kept.  The function to hand to
    {!Tango_core.Middleware.set_query_observer}. *)

val find : t -> int -> record option
(** The stored record with this [seq], if it was kept and has not been
    evicted. *)

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
