(** Name resolution over a keyed list in constant time per lookup.

    Resolves a name the way the optimizer's linear lookups do
    ([Rules.find_item_by], [Rel_stats.find]): the first item whose key is
    exactly the name wins; otherwise the name's base name must match the
    base name of exactly one item's key.  Unlike {!Schema.index}, the
    fallback compares base names on both sides, so a qualified name
    ([A.PosID]) also finds a unique [B.PosID]. *)

type 'a t

val make : ('a -> string option) -> 'a list -> 'a t
(** Index the items by their keys; items without a key are never found. *)

val find : 'a t -> string -> 'a option
(** The item the name resolves to; [None] when it matches nothing or
    several items by base name only. *)
