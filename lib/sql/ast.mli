(** Abstract syntax of the SQL subset understood by the simulated DBMS.

    The subset covers what TANGO's Translator-To-SQL emits and what the
    experiments need: SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY,
    derived tables, UNION [ALL], correlated scalar subqueries,
    aggregate functions, GREATEST/LEAST, IS [NOT] NULL, BETWEEN, and
    the DDL/DML used by the transfer operators (CREATE TABLE, INSERT,
    DROP TABLE). *)

open Tango_rel

type binop =
  | Add | Sub | Mul | Div
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or

type aggfun = Count_star | Count | Sum | Avg | Min | Max

val aggfun_name : aggfun -> string

type expr =
  | Lit of Value.t
  | Param of int
      (** bind variable, 1-based ([$n]; bare [?] markers are numbered
          left-to-right by the parser) *)
  | Col of string option * string  (** optional qualifier, column name *)
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | Between of expr * expr * expr  (** e BETWEEN lo AND hi *)
  | Greatest of expr list
  | Least of expr list
  | Agg of aggfun * expr option
      (** [Agg (Count_star, None)] is [COUNT(STAR)] *)
  | Scalar_subquery of query  (** correlated scalar subquery *)
  | In_subquery of expr * query
  | Exists of query

and select_item =
  | Star
  | Expr of expr * string option  (** expression with optional AS alias *)

and table_ref =
  | Table of string * string option  (** table name, optional alias *)
  | Derived of query * string  (** (subquery) alias *)

and query =
  | Select of select
  | Union of query * query  (** UNION (set semantics: duplicates removed) *)
  | Union_all of query * query

and select = {
  validtime : bool;
      (** temporal-SQL marker: sequenced valid-time semantics.  The
          DBMS itself rejects VALIDTIME queries — evaluating them is
          the middleware's job ({!Tango_tsql}). *)
  coalesce : bool;
      (** temporal-SQL marker ([VALIDTIME COALESCE SELECT]): coalesce
          value-equivalent result tuples with adjacent/overlapping
          periods *)
  distinct : bool;
  items : select_item list;
  from : table_ref list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * bool) list;  (** expr, ascending? *)
}

type column_def = { col_name : string; col_type : Value.dtype }

type statement =
  | Query of query
  | Create_table of string * column_def list
  | Drop_table of string
  | Insert of string * Value.t list list  (** INSERT INTO t VALUES rows *)

val select :
  ?validtime:bool ->
  ?coalesce:bool ->
  ?distinct:bool ->
  ?where:expr option ->
  ?group_by:expr list ->
  ?having:expr option ->
  ?order_by:(expr * bool) list ->
  select_item list ->
  table_ref list ->
  query

val conj : expr list -> expr option
(** Conjunction of a list of predicates; [None] when empty. *)

val conjuncts : expr -> expr list
(** Split a predicate into its top-level conjuncts. *)

val columns : expr -> (string option * string) list
(** Column references appearing in an expression (ignoring subqueries,
    whose references are resolved in their own scope or via
    correlation). *)

val map_params : (int -> expr) -> expr -> expr
(** Replace every [Param n] by [f n], recursing into subqueries.  Used
    to close a plan template over its bound values
    ([f n = Lit values.(n-1)]). *)

val contains_agg : expr -> bool
val contains_subquery : expr -> bool
