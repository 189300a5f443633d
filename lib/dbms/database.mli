(** The database façade — the "conventional DBMS" TANGO sits on top of.

    Accepts SQL text (or pre-parsed statements), maintains the catalog, and
    exposes ANALYZE and index DDL.  The middleware accesses it only through
    this module and {!Backend}, mirroring the paper's JDBC boundary.

    Every table carries a version (see {!Catalog}) that create, each
    INSERT statement or load, index DDL and ANALYZE advance; it is how
    the middleware tells whether the statistics and plans it holds still
    describe the table. *)

open Tango_rel
open Tango_sql

type t

type result = Rows of Relation.t | Ok_count of int

val create : ?pool_pages:int -> unit -> t
(** Fresh empty database.  [pool_pages] sizes the shared LRU buffer pool
    (default 1024 pages). *)

val catalog : t -> Catalog.t
val io_stats : t -> Tango_storage.Io_stats.t

val set_join_method : t -> Executor.join_method -> unit
(** Force a join method — the stand-in for Oracle hints (Query 4). *)

val execute : t -> string -> result

val query : t -> string -> Relation.t
(** Run a SELECT; raises {!Executor.Sql_error} on DDL. *)

val query_ast : t -> Ast.query -> Relation.t
(** Run a SELECT to the end: {!open_query} drained into a relation. *)

val open_query : t -> Ast.query -> Executor.stream
(** Open a SELECT as a stream of row batches (see {!Executor}). *)

val create_table : t -> string -> Schema.t -> unit
val drop_table : t -> string -> unit
val table_exists : t -> string -> bool
val table_schema : t -> string -> Schema.t
val table_cardinality : t -> string -> int

val load_relation : t -> string -> Relation.t -> unit
(** Create-and-load in one step (the schema is unqualified). *)

val fresh_temp_name : t -> string
(** Unique temp-table name for a `TRANSFER^D` ("the table must be dropped
    at the end of the query"). *)

val create_index : t -> ?clustered:bool -> string -> string -> unit
(** [create_index db table attr]. *)

val analyze : t -> ?histograms:Stat.histograms -> string -> Stat.table_stats
(** ANALYZE one table (see {!Analyze.run}) and attach the statistics to
    the catalog, stamped with the table's new version. *)

val analyze_all : t -> ?histograms:Stat.histograms -> unit -> unit

val stats_of : t -> string -> Stat.table_stats option
(** Catalog statistics, if the table has been analyzed. *)

val current_stats : t -> string -> Stat.table_stats option
(** Catalog statistics that describe the table's current version:
    nothing was appended since ANALYZE ran. *)

val table_version : t -> string -> int option
(** The table's version (see {!Catalog}); [None] when it does not
    exist. *)
