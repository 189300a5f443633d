(** The DBMS's SQL execution engine.

    Queries compile to closures once (column references become positional),
    then run as batch producers that the caller pulls.  Behaviour mirrors a
    circa-2000 relational DBMS:

    - base-table access picks an index range/point scan when a conjunct
      matches an indexed attribute, else a full scan;
    - equi-joins default to sort-merge, or an index nested loop when the
      inner side is a base table with an index on its join attribute; a
      session can force a method (the Oracle-hint stand-in);
    - grouping and DISTINCT are sort-based;
    - a derived table read more than once per statement materializes once
      (memoized), while correlated scalar subqueries re-evaluate per outer
      row — which is precisely why temporal aggregation expressed in SQL is
      slow;
    - a statement builds only the columns it uses: each derived table's
      SELECT list is narrowed to the names its enclosing SELECTs reference
      (the union over every occurrence of a derived query, so its copies
      still materialize once; DISTINCT, UNION, a global aggregate and [*]
      keep their lists), and every base-table access path — full scan,
      index range and point scans, index nested-loop probes — decodes only
      the stored fields its SELECT references.  A skipped field reads as
      [Null] in its usual position.  Pages read, tuples read, index lookups
      and result rows are those of the unpruned statement. *)

open Tango_rel
open Tango_sql

exception Sql_error of string

type join_method = Auto | Force_nested_loop | Force_sort_merge

type settings = { mutable join_method : join_method }

val default_settings : unit -> settings

(** {1 Statements}

    A statement opens as a stream: compilation happens at {!open_query},
    execution as the stream is pulled.  Scans, filters, projections and
    single-source derived tables run one page per pull; sorting, grouping,
    DISTINCT, merge-join inputs, UNION and memoized derived tables
    materialize at the first pull.  Each statement counts once in
    [dbms.queries], each row it yields in [dbms.rows_returned], and — when
    a trace is being collected at open — contributes one [dbms.query] span
    (executor time over compilation and every pull) when it ends:
    at exhaustion or at {!close}. *)

type stream

val open_query : ?settings:settings -> Catalog.t -> Ast.query -> stream
(** Compile a query AST against a catalog.  Raises {!Sql_error} on
    unresolvable columns, arity mismatches, or unsupported constructs
    (e.g. VALIDTIME, which only the middleware evaluates); errors that
    depend on the data (a scalar subquery returning several rows) surface
    from {!next_batch}. *)

val next_batch : stream -> Tuple.t array option
(** The next batch of result rows, never empty; [None] at exhaustion and
    on every later call.  The stream drops its execution state at
    exhaustion. *)

val close : stream -> unit
(** End the statement early (a no-op once exhausted or closed). *)

val run_query : ?settings:settings -> Catalog.t -> Ast.query -> Relation.t
(** Open, drain and close: the materialized result. *)
