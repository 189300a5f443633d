(** Attribute histograms, as maintained by conventional DBMSs and consumed
    by the middleware's selectivity estimation (paper Section 3.3).

    Buckets cover the numeric view of values; for bucket [i], [b_val] is
    its value count — the paper's [bVal(i,H)] accessor. *)

type t

val bucket_count : t -> int
val total : t -> int

val b_val : t -> int -> int

val height_balanced : buckets:int -> Value.t array -> t
(** Equi-depth histogram; nulls are excluded. *)

val count_below : t -> float -> float
(** Estimated number of values strictly below the argument: full preceding
    buckets plus a uniform fraction of the containing bucket — the
    histogram branch of [StartBefore]/[EndBefore]. *)
