(** Derivation of statistics for intermediate relations (paper Section 3):
    given base-relation statistics, estimate cardinality and column
    statistics for every operator's output. *)

open Tango_algebra

open Tango_rel

type env = {
  base : qualifier:string -> string -> Rel_stats.t;
      (** statistics for a base table under a qualifier *)
  mode : Selectivity.mode;
}

val env :
  ?mode:Selectivity.mode ->
  (qualifier:string -> string -> Rel_stats.t) ->
  env

val temporal_overlap_factor : Rel_stats.t -> Rel_stats.t -> float
(** Expected fraction of key-matched tuple pairs whose periods overlap,
    estimated from the period attributes' ranges. *)

val taggr_cardinality : Rel_stats.t -> string list -> float * float * float
(** Temporal-aggregation bounds (paper §3.4): (minimum, maximum, estimate),
    the estimate using the paper's 60 %-of-maximum rule. *)

val step : env -> Op.t -> (Rel_stats.t * Schema.t Lazy.t) list -> Rel_stats.t
(** One level of derivation: the statistics of [op]'s top operator's output
    given its arguments' statistics and schemas, in {!Op.children} order
    ([op]'s own arguments are not looked at; a schema is forced only where
    the estimate needs it).  Every estimation rule lives here. *)

val derive : env -> Op.t -> Rel_stats.t
(** Statistics of an operator tree: {!step} applied bottom-up. *)
