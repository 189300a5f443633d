(** In-memory relations: a schema plus a sequence of tuples.

    Relations are {e lists} in the paper's sense — duplicates are retained
    and tuple order is significant; a known sort order may be attached as a
    property. *)

type t = {
  schema : Schema.t;
  tuples : Tuple.t array;
  order : Order.t;  (** known sort order, [[]] when unknown *)
}

val make : ?order:Order.t -> Schema.t -> Tuple.t array -> t
val of_list : ?order:Order.t -> Schema.t -> Tuple.t list -> t

val schema : t -> Schema.t
val tuples : t -> Tuple.t array
val order : t -> Order.t
val cardinality : t -> int
val to_list : t -> Tuple.t list

val byte_size : t -> int
(** Total bytes — the [size(r)] statistic. *)

val avg_tuple_size : t -> float

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val column : t -> string -> Value.t array

val sort : Order.t -> t -> t
(** Stable sort; records the resulting order property. *)

val filter : (Tuple.t -> bool) -> t -> t
(** Order-preserving; returns the relation itself when nothing is
    dropped. *)

val filter_tuples : (Tuple.t -> bool) -> Tuple.t array -> Tuple.t array
(** Order-preserving, one predicate call per tuple; returns the input
    array itself when nothing is dropped. *)

val project : string list -> t -> t

val equal_multiset : t -> t -> bool
(** Same tuples with the same multiplicities (order ignored). *)

val equal_list : t -> t -> bool
(** Same tuples in the same positions. *)

val distinct_count : t -> string -> int
(** The [distinct(A, r)] statistic. *)

val min_value : t -> string -> Value.t option
val max_value : t -> string -> Value.t option

val pp : Format.formatter -> t -> unit
(** Aligned tabular rendering. *)
