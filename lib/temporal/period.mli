(** Closed-open time periods [\[t1, t2)] — the paper's representation for
    the T1/T2 attribute pair.  A period is valid when [t1 < t2]; empty
    periods are unrepresentable. *)

type t

val make : Chronon.t -> Chronon.t -> t
(** Raises [Invalid_argument] when the period would be empty. *)

val t1 : t -> Chronon.t
val t2 : t -> Chronon.t

val equal : t -> t -> bool

val overlaps : t -> t -> bool
(** [a.t1 < b.t2 && a.t2 > b.t1] — the temporal join predicate. *)

val contains : t -> Chronon.t -> bool
(** Timeslice predicate: [t1 <= c && t2 > c]. *)

val intersect : t -> t -> t option
(** Overlap of the two periods ([GREATEST]/[LEAST] of the bounds) — the
    result period of a temporal join. *)

val to_string : t -> string

val coalesce : t list -> t list
(** Minimal set of maximal periods covering the same chronons, sorted by
    start. *)

val constant_intervals : t list -> (t * int) list
(** Split the covered timeline into maximal intervals over which the set of
    covering periods is constant — the "constant periods" of temporal
    aggregation.  Returns each interval with its cover count, sorted by
    start; gaps (cover 0) are omitted. *)

val covered : t list -> int
(** Total covered chronons. *)
