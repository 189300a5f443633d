(** Per-backend cost factors, keyed by backend name (the cost-factor
    handle of [Tango_dbms.Backend]).  Shards behind different simulated
    latencies calibrate independently; lookups fall back to the session's
    base factors until a backend has calibrated. *)

open Tango_cost

type t

val create : base:(unit -> Factors.t) -> t
(** [base] supplies the fallback factors (called per lookup, so adaptive
    refits of the global factors flow through). *)

val set : t -> string -> Factors.t -> unit
val get : t -> string -> Factors.t
