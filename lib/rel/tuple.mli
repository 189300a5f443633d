(** Tuples: flat arrays of values, positionally matching a {!Schema.t}. *)

type t = Value.t array

val arity : t -> int
val get : t -> int -> Value.t
val of_list : Value.t list -> t

val field : Schema.t -> t -> string -> Value.t
(** Field access by (possibly qualified) attribute name. *)

val concat : t -> t -> t

val project : Schema.t -> string list -> t -> t
(** Sub-tuple with the named attributes, in the given order. *)

val compare : t -> t -> int
(** Lexicographic by {!Value.compare}. *)

val equal : t -> t -> bool

val compare_on : int array -> bool array -> t -> t -> int
(** [compare_on idx asc a b]: lexicographic by {!Value.compare} on
    positions [idx], ascending where [asc] holds, descending elsewhere.
    Allocates nothing. *)

val byte_size : t -> int
(** Total bytes, the per-tuple contribution to [size(r)]. *)

val serialize : Buffer.t -> t -> unit

val read : Value.reader -> t
(** Parse the tuple at the reader's position and advance past it. *)

val read_cols : bool array -> Value.reader -> t
(** [read_cols keep r] is {!read} that builds only the fields at positions
    where [keep] holds; the others are skipped with {!Value.skip} and read
    as [Null].  [keep] must cover the tuple's arity. *)
