(** The logical temporal algebra.

    Operator trees describe {e what} to compute; {e where} each part runs is
    expressed by the two transfer operators ([To_mw] = the paper's [T^M],
    [To_db] = [T^D]).  The initial plan produced from a query assigns
    everything to the DBMS with a single [To_mw] on top (paper §2.1).

    Temporal relations carry their valid-time period in two attributes with
    base names [T1] and [T2] (closed-open); temporal operators locate them
    by base name. *)

open Tango_rel

exception Ill_formed of string

val ill_formed : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Ill_formed} with a formatted message. *)

(** Where a relation resides. *)
type location = Db | Mw

(** One aggregate of a temporal aggregation: function, argument attribute
    ([None] for [COUNT(STAR)]), and output attribute name. *)
type agg = { fn : Tango_sql.Ast.aggfun; arg : string option; out : string }

type t =
  | Scan of { table : string; alias : string option; schema : Schema.t }
      (** base relation in the DBMS; the node's output schema is [schema]
          qualified by [alias] (or the table name) *)
  | Select of { pred : Tango_sql.Ast.expr; arg : t }
  | Project of { items : (Tango_sql.Ast.expr * string) list; arg : t }
      (** generalized projection: expressions with output names *)
  | Sort of { order : Order.t; arg : t }
  | Product of { left : t; right : t }
  | Join of { pred : Tango_sql.Ast.expr; left : t; right : t }
  | Temporal_join of { pred : Tango_sql.Ast.expr; left : t; right : t }
      (** [pred] plus implicit period overlap; the result period is the
          intersection, exposed as unqualified [T1]/[T2] *)
  | Temporal_aggregate of { group_by : string list; aggs : agg list; arg : t }
      (** ξᵀ over constant intervals *)
  | Dup_elim of t
  | Coalesce of t
      (** merge periods of value-equivalent tuples (paper §7 extension) *)
  | Difference of { left : t; right : t }  (** multiset difference *)
  | To_mw of t  (** T^M: DBMS → middleware *)
  | To_db of t  (** T^D: middleware → DBMS *)

(** {1 Schema and period helpers} *)

val period_attrs : Schema.t -> (string * string) option
(** The period attributes (base names [T1]/[T2]) of a schema, if present. *)

val non_period_attrs : Schema.t -> Schema.attribute list
val agg_out_dtype : Schema.t -> agg -> Value.dtype

val schema : t -> Schema.t
(** Output schema; raises {!Ill_formed} when attribute references do not
    resolve. *)

val location : t -> location
(** Residence of the operator's result; raises {!Ill_formed} when a binary
    operator mixes locations. *)

val schema_step : t -> Schema.t list -> Schema.t
(** One level of {!schema}: the top operator's output schema given its
    arguments' schemas in {!children} order; the operator's own argument
    subtrees are not looked at.  {!schema} is this step applied bottom-up;
    the optimizer's memo applies it to stored per-class schemas. *)

val location_step : t -> location list -> location
(** One level of {!location}, over the arguments' locations in
    {!children} order. *)

val validate : t -> unit
(** Check the whole tree: schemas resolve, binary locations agree, and
    transfers alternate sensibly. *)

(** {1 Traversal} *)

val children : t -> t list
val with_children : t -> t list -> t

val map_own_exprs : (Tango_sql.Ast.expr -> Tango_sql.Ast.expr) -> t -> t
(** Rewrite the top operator's own scalar expressions with [f]
    (predicates and projection items; grouping/aggregate/sort attributes
    are names, not expressions, and pass through); its arguments are
    kept. *)

(** {1 Printing} *)

val op_name : t -> string
val to_string : t -> string

(** {1 Constructors} *)

val scan : ?alias:string -> string -> Schema.t -> t
val select : Tango_sql.Ast.expr -> t -> t
val project : (Tango_sql.Ast.expr * string) list -> t -> t

val project_attrs : string list -> t -> t
(** Projection onto named attributes (outputs carry base names). *)

val sort : Order.t -> t -> t
val join : Tango_sql.Ast.expr -> t -> t -> t
val temporal_join : Tango_sql.Ast.expr -> t -> t -> t
val temporal_aggregate : string list -> agg list -> t -> t
val count_star : string -> agg
val agg : Tango_sql.Ast.aggfun -> string -> string -> agg
val to_mw : t -> t
val to_db : t -> t
