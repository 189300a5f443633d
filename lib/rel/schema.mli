(** Relation schemas: ordered lists of named, typed attributes.

    Attribute names may be qualified ([POS.T1]) or unqualified ([T1]);
    lookup by an unqualified name succeeds when exactly one attribute's
    base name matches. *)

type attribute = { name : string; dtype : Value.dtype }

type t = attribute array

val make : (string * Value.dtype) list -> t
val arity : t -> int
val attributes : t -> attribute list
val names : t -> string list
val dtype_at : t -> int -> Value.dtype
val name_at : t -> int -> string

val base_name : string -> string
(** Base name of a possibly qualified attribute ([A.PosID] → [PosID]). *)

val has_base_name : string -> string -> bool
(** [has_base_name name base]: whether [base_name name = base], computed
    without allocating. *)

val index : t -> string -> int
(** Position of an attribute: an exact name match wins; otherwise an
    unqualified name matches a unique attribute with that base name.
    Raises [Not_found] when missing or ambiguous. *)

val index_opt : t -> string -> int option
val mem : t -> string -> bool
val dtype_of : t -> string -> Value.dtype

val concat : t -> t -> t
(** Concatenation, for joins and products. *)

val project : t -> string list -> t
(** Keep the named attributes, in the given order. *)

val qualify : string -> t -> t
(** [qualify alias s] prefixes every attribute base name with [alias.]. *)

val unqualify : t -> t
(** Strip all qualifiers (e.g. when materializing a derived table). *)

val rename : t -> string -> string -> t

val equal : t -> t -> bool
(** Same names and types, positionally. *)

val union_compatible : t -> t -> bool
(** Same arity and types (names may differ) — the requirement of union and
    difference. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
