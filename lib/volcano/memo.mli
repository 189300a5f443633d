(** The Volcano optimizer's memo: equivalence classes of query
    subexpressions.

    Each class stores {e elements} — operators whose arguments are (ids of)
    other classes.  Rules add elements to classes or merge classes proved
    equivalent (union-find; resolve ids through {!find}).  Each class
    stores its logical properties (schema and location), derived once when
    the class is created.  Each change to a class — gaining an element or
    surviving a union — stamps it with the memo's change {!clock}.  The
    per-query class/element counts the paper reports are {!class_count}
    and {!element_count}. *)

open Tango_rel
open Tango_algebra

(** An operator with child classes, mirroring {!Op.t}. *)
type node =
  | N_scan of { table : string; alias : string option; schema : Schema.t }
  | N_select of { pred : Tango_sql.Ast.expr; arg : int }
  | N_project of { items : (Tango_sql.Ast.expr * string) list; arg : int }
  | N_sort of { order : Order.t; arg : int }
  | N_product of { left : int; right : int }
  | N_join of { pred : Tango_sql.Ast.expr; left : int; right : int }
  | N_tjoin of { pred : Tango_sql.Ast.expr; left : int; right : int }
  | N_taggr of { group_by : string list; aggs : Op.agg list; arg : int }
  | N_dupelim of int
  | N_coalesce of int
  | N_difference of { left : int; right : int }
  | N_tm of int
  | N_td of int

type t

(** A class's logical properties; each is the value, or the exception its
    derivation raised. *)
type props = {
  schema : (Schema.t, exn) result;
  location : (Op.location, exn) result;
}

val create : unit -> t

val find : t -> int -> int
(** Canonical class id (union-find root). *)

val canon : t -> node -> node
(** Canonicalize a node's child class ids. *)

val elements : t -> int -> node list
(** Elements of a class, canonicalized. *)

val entries : t -> int -> (int * node) list
(** {!elements} paired with their element ids: insertion ordinals, stable
    for the memo's life (a union moves elements, it does not renumber
    them). *)

val item_index :
  t ->
  (Tango_sql.Ast.expr * string) list ->
  (Tango_sql.Ast.expr * string) Name_index.t
(** The output-name index of a projection's item list, built the first
    time the memo is asked for that list (by identity) and kept with the
    memo. *)

val clock : t -> int
(** The change clock: advances whenever a class gains an element or
    survives a union, and stamps that class with its new value. *)

val changed_since : t -> node -> int -> bool
(** [changed_since m n t]: whether anything a rule probing [n] reads may
    have changed after clock value [t] — a child class of [n] was stamped
    since, or a union since merged classes whose stored properties
    differ. *)

val children : node -> int list
(** Child class ids of a node, in {!Op.children} order. *)

val op_of_node : (int -> Op.t) -> node -> Op.t
(** The node's operator over the trees [sub] gives for its children. *)

val top_op : node -> Op.t
(** The node's operator over placeholder arguments — enough for one-level
    steps ({!Op.schema_step}, {!Tango_stats.Derive.step}), which read only
    the top operator. *)

val props : t -> int -> props
(** Stored properties of a class: those of the element that created it
    (a merge keeps the surviving root's). *)

val derive : t -> node -> props
(** A node's properties, one {!Op.schema_step}/{!Op.location_step} above
    its children's stored properties (a child's error propagates).  This
    is how {!insert} computes a new class's properties. *)

val class_count : t -> int
val element_count : t -> int
val classes : t -> int list

val union : t -> int -> int -> int
(** Merge two classes proved equivalent; returns the surviving root, which
    keeps its own properties. *)

val insert : t -> node -> int
(** Class holding the node, creating one if new (structural dedup). *)

val add_to_class : t -> int -> node -> bool
(** Record a node as equivalent to a class; merges classes when the node
    already lives elsewhere.  True when the memo changed. *)

val insert_op : t -> Op.t -> int
(** Insert a whole operator tree; returns the root class. *)

exception Cyclic

val preferred_elements : t -> int -> node list
(** {!elements} with transfers last: the order in which a representative
    is chosen ({!extract}, and [Physical.class_stats]). *)

val extract : t -> int -> Op.t
(** One representative operator tree of a class (transfers deprioritized),
    for the rule-soundness gate; raises {!Cyclic}
    only if every element is cyclically self-referential. *)

val schema_of : t -> int -> Schema.t
(** The class's stored output schema; raises what its derivation raised
    (usually {!Op.Ill_formed}). *)

val location : t -> int -> Op.location
(** The class's stored result location; raises what its derivation
    raised. *)
