(** Abstract syntax of the SQL subset understood by the simulated DBMS.

    The subset covers what TANGO's Translator-To-SQL emits and what the
    experiments need: SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY, derived
    tables, UNION [ALL], correlated scalar subqueries, aggregate functions,
    GREATEST/LEAST, IS [NOT] NULL, BETWEEN, and the DDL/DML used by the
    transfer operators (CREATE TABLE, INSERT, DROP TABLE). *)

open Tango_rel

type binop =
  | Add | Sub | Mul | Div
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or

type aggfun = Count_star | Count | Sum | Avg | Min | Max

let aggfun_name = function
  | Count_star | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

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
  | Agg of aggfun * expr option  (** [Agg (Count_star, None)] is [COUNT(STAR)] *)
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
      (** temporal-SQL marker: sequenced valid-time semantics.  The DBMS
          itself rejects VALIDTIME queries — evaluating them is the
          middleware's job ({!Tango_tsql}). *)
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

let select ?(validtime = false) ?(coalesce = false) ?(distinct = false)
    ?(where = None) ?(group_by = []) ?(having = None) ?(order_by = []) items
    from =
  Select
    { validtime; coalesce; distinct; items; from; where; group_by; having;
      order_by }

(** Conjunction of a list of predicates; [None] when empty. *)
let conj = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc p -> Binop (And, acc, p)) e rest)

(** Split a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(** Column references appearing in an expression (ignoring subqueries, whose
    references are resolved in their own scope or via correlation). *)
let rec columns = function
  | Lit _ | Param _ -> []
  | Col (q, c) -> [ (q, c) ]
  | Binop (_, a, b) -> columns a @ columns b
  | Not e | Is_null e | Is_not_null e -> columns e
  | Between (a, b, c) -> columns a @ columns b @ columns c
  | Greatest es | Least es -> List.concat_map columns es
  | Agg (_, Some e) -> columns e
  | Agg (_, None) -> []
  | Scalar_subquery _ | Exists _ -> []
  | In_subquery (e, _) -> columns e

(** Replace every [Param n] by [f n], recursing into subqueries.  Used to
    close a plan template over its bound values ([f n = Lit values.(n-1)]). *)
let rec map_params f e =
  match e with
  | Lit _ | Col _ -> e
  | Param n -> f n
  | Binop (op, a, b) -> Binop (op, map_params f a, map_params f b)
  | Not e -> Not (map_params f e)
  | Is_null e -> Is_null (map_params f e)
  | Is_not_null e -> Is_not_null (map_params f e)
  | Between (a, b, c) ->
      Between (map_params f a, map_params f b, map_params f c)
  | Greatest es -> Greatest (List.map (map_params f) es)
  | Least es -> Least (List.map (map_params f) es)
  | Agg (fn, Some e) -> Agg (fn, Some (map_params f e))
  | Agg (_, None) -> e
  | Scalar_subquery q -> Scalar_subquery (map_params_query f q)
  | In_subquery (e, q) -> In_subquery (map_params f e, map_params_query f q)
  | Exists q -> Exists (map_params_query f q)

and map_params_query f = function
  | Select s ->
      let item = function
        | Star -> Star
        | Expr (e, a) -> Expr (map_params f e, a)
      in
      let table_ref = function
        | Table _ as t -> t
        | Derived (q, a) -> Derived (map_params_query f q, a)
      in
      Select
        {
          s with
          items = List.map item s.items;
          from = List.map table_ref s.from;
          where = Option.map (map_params f) s.where;
          group_by = List.map (map_params f) s.group_by;
          having = Option.map (map_params f) s.having;
          order_by = List.map (fun (e, asc) -> (map_params f e, asc)) s.order_by;
        }
  | Union (a, b) -> Union (map_params_query f a, map_params_query f b)
  | Union_all (a, b) -> Union_all (map_params_query f a, map_params_query f b)

let rec contains_agg = function
  | Agg _ -> true
  | Lit _ | Param _ | Col _ | Scalar_subquery _ | Exists _ -> false
  | Binop (_, a, b) -> contains_agg a || contains_agg b
  | Not e | Is_null e | Is_not_null e -> contains_agg e
  | Between (a, b, c) -> contains_agg a || contains_agg b || contains_agg c
  | Greatest es | Least es -> List.exists contains_agg es
  | In_subquery (e, _) -> contains_agg e

let rec contains_subquery = function
  | Scalar_subquery _ | Exists _ | In_subquery _ -> true
  | Lit _ | Param _ | Col _ | Agg (_, None) -> false
  | Agg (_, Some e) | Not e | Is_null e | Is_not_null e -> contains_subquery e
  | Binop (_, a, b) -> contains_subquery a || contains_subquery b
  | Between (a, b, c) ->
      contains_subquery a || contains_subquery b || contains_subquery c
  | Greatest es | Least es -> List.exists contains_subquery es
