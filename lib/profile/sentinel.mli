(** Plan-regression sentinel.

    Remembers the best observed plan (signature + latency) per query
    fingerprint.  When a later execution of the same query picks a
    {e different} plan and runs slower than the best by more than a
    fixed ratio, that is flagged as a plan regression — e.g. an
    adaptive recalibration that made things worse. *)

type event =
  | Regression of {
      elapsed_us : float;
      best_us : float;
      best_signature : string;
      chosen_signature : string;
    }

type t

val create : unit -> t
(** A changed plan slower than 1.5 times the best is a regression. *)

val plan_regressions : Tango_obs.Counter.t
(** ["profile.plan_regressions"] *)

val observe :
  t ->
  fingerprint:string ->
  signature:string ->
  elapsed_us:float ->
  event list
(** Record one execution of the query identified by [fingerprint], whose
    chosen plan renders as [signature].  Fires [Regression] per the
    ratio rule.  Also advances the best-plan
    table.  Returned events are already counted and logged. *)

val best : t -> string -> (string * float) option
(** Best observed (plan signature, latency in us) for a query
    fingerprint. *)
