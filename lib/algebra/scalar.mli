(** Scalar expressions of the middleware algebra.

    The algebra reuses the SQL expression AST for predicates and projection
    functions, which makes the Translator-To-SQL a plain embedding.
    Middleware-side evaluation lives here; subqueries and aggregates are
    invalid in this position and raise {!Unsupported}. *)

open Tango_rel
open Tango_sql

exception Unsupported of string

val compile : Schema.t -> Ast.expr -> Tuple.t -> Value.t
(** Resolve all column references against the schema once; returns an
    evaluator over tuples. *)

val compile_pred : Schema.t -> Ast.expr -> Tuple.t -> bool

val attrs : Ast.expr -> string list
(** Attribute names referenced (qualified spelling preserved). *)

val covers : Schema.t -> Ast.expr -> bool
(** Do all references resolve in the schema? *)

val dtype : Schema.t -> Ast.expr -> Value.dtype
(** Static type under the schema. *)

val map_cols :
  (string option -> string -> Ast.expr) -> Ast.expr -> Ast.expr
(** Substitute column references (used for renaming through projections). *)

val to_string : Ast.expr -> string
