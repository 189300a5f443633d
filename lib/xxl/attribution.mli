(** Per-query, per-backend latency attribution.

    An ambient collector (installed around one plan execution, like
    {!Tango_obs.Trace}) that the transfer and gather layers feed:

    - {e transfer time} ([us]): wall time spent inside backend boundary
      calls — issuing the statement, fetching batches, bulk-loading
      [TRANSFER^D] temps — together with the rows and bytes that crossed;
    - {e gather wait time} ([wait_us]): wall time the gather merge sat
      blocked on a shard's stream {e beyond} the raw transfer time
      recorded underneath during that same blocked interval, so the two
      never double-count and their sum is the shard's total contribution.

    When no collector is installed every hook is a cheap no-op, so the
    execution hot path pays a single branch. *)

type breakdown = {
  rows : int;  (** tuples that crossed the boundary (both directions) *)
  bytes : int;  (** wire bytes that crossed the boundary *)
  us : float;  (** transfer time: time inside backend calls *)
  wait_us : float;
      (** gather-merge blocked time on this shard beyond [us] *)
  alloc_bytes : int;
      (** bytes allocated on the pulling domain inside the boundary
          calls ({!Tango_obs.Runtime} delta) *)
}

type t

val create : unit -> t

val with_collector : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient collector for the duration of [f]
    (restoring the previous one afterwards, so nested executions each
    keep their own ledger). *)

val active : unit -> bool
(** Is a collector installed?  Lets callers skip the clock and meter
    reads when nobody is listening. *)

val transfer :
  backend:string -> rows:int -> bytes:int -> us:float -> alloc_bytes:int -> unit
(** Record boundary work against [backend]'s lane; no-op without a
    collector. *)

val wait : backend:string -> us:float -> unit
(** Record gather-merge blocked time against [backend]'s lane; no-op
    without a collector. *)

val transfer_us : backend:string -> float
(** The transfer time accumulated so far for [backend] (0 without a
    collector) — snapshot around a blocking pull to subtract the inner
    transfer time from the measured wait. *)

val breakdown : t -> (string * breakdown) list
(** Per-backend totals, in first-seen order. *)

val totals : (string * breakdown) list -> breakdown
(** Elementwise sum of a breakdown list. *)
