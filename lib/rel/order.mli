(** Sort orders: lists of attributes with directions.

    Order is a first-class plan property in the middleware (the paper's
    list vs multiset equivalence); this module is the shared vocabulary for
    those properties and for sort operators. *)

type direction = Asc | Desc

type key = { attr : string; dir : direction }

type t = key list
(** The empty list means "no known order". *)

val asc : string -> key

val equal : t -> t -> bool

val is_prefix : t -> t -> bool
(** The paper's [IsPrefixOf(A, B)] (rules T10, T12). *)

val satisfies : actual:t -> required:t -> bool
(** Does a relation ordered by [actual] satisfy a requirement of
    [required]?  True when [required] is a prefix of [actual]. *)

val comparator : t -> Schema.t -> Tuple.t -> Tuple.t -> int

val to_string : t -> string
