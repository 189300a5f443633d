(** Batch-at-a-time middleware algorithms: `FILTER^M` and `PROJECT^M`,
    both order-preserving as the paper requires of middleware algorithms. *)

open Tango_rel
open Tango_sql

val next_kept : (Tuple.t -> bool) -> Cursor.t -> Tuple.t array option
(** Pull batches until one has a tuple satisfying the predicate; return
    that batch's survivors in order ([None] at exhaustion).  Shared by
    the batch paths of `FILTER^M` and `DIFFERENCE^M`. *)

val filter : Ast.expr -> Cursor.t -> Cursor.t
(** `FILTER^M` (paper §3.3). *)

val project : (Ast.expr * string) list -> Cursor.t -> Cursor.t
(** `PROJECT^M`: generalized projection (expressions with output names). *)

val project_attrs : string list -> Cursor.t -> Cursor.t
(** Projection onto named attributes (outputs carry base names). *)
