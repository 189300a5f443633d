(** The feedback store: misestimation statistics accumulated across
    queries.

    Per-operator EXPLAIN ANALYZE records ({!Analyze.record}) are keyed by
    their {e plan-fragment fingerprint} ({!Tango_volcano.Physical.
    fingerprint}), so the same fragment recurring across queries — or
    across different literals of one parameterized query — aggregates
    into one entry.  The store also keeps a bounded window of refit
    observations and per-cost-factor q-error aggregates, which drive the
    adaptive recalibration loop ({!Adapt}). *)

open Tango_cost

type stats = {
  operator : string;
  executions : int;
  mean_q_rows : float;
  mean_q_cost : float;
  max_q_rows : float;
  max_q_cost : float;
  mean_act_us : float;
}

type t

val create : unit -> t
(** The refit window holds the newest 1024 observations. *)

val record : t -> Analyze.report -> unit
(** Fold one analyzed execution into the store. *)

val queries : t -> int
(** Executions recorded since creation (or the last {!clear_factors}). *)

val find : t -> string -> stats option
(** Aggregate statistics for one fragment fingerprint. *)

val factor_q : t -> (string * (int * float)) list
(** Per cost factor: (samples, mean self-cost q-error — {!Analyze.record}'s
    [q_self]) of the operators priced by that factor — the adaptation
    trigger signal. *)

val observations : t -> Calibrate.observation list
(** The current refit window, oldest first. *)

val clear_factors : t -> string list -> unit
(** Drop the named factors' q-error aggregates and refit observations and
    restart the {!queries} count — called after a refit, so a refitted
    factor needs fresh evidence while every other factor keeps its own. *)
