(** The database façade — the "conventional DBMS" TANGO sits on top of.

    Accepts SQL text (or pre-parsed statements), maintains the catalog, and
    exposes ANALYZE and index DDL.  The middleware accesses it only through
    this module and {!Backend}, mirroring the paper's JDBC boundary. *)

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

val schema_generation : t -> int
(** Monotone counter advanced by DDL (create/drop table, create index)
    and ANALYZE on non-temporary tables; `TANGO_TMP_*` transfer tables do
    not advance it.  Plan caches compare it to detect staleness. *)

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

val analyze :
  t ->
  ?histograms:[ `All | `Cols of string list | `None ] ->
  ?buckets:int ->
  ?bump:bool ->
  string ->
  Stat.table_stats
(** ANALYZE one table (see {!Analyze.run}).  Advances the
    {!schema_generation} (statistics changed, cached plans are stale)
    unless [bump:false] — which the middleware's internal statistics
    collection passes, since its re-ANALYZE is an implementation detail,
    not a user-visible statistics change. *)

val analyze_all :
  t ->
  ?histograms:[ `All | `Cols of string list | `None ] ->
  ?buckets:int ->
  unit ->
  unit

val stats_of : t -> string -> Stat.table_stats option
(** Catalog statistics, if the table has been analyzed. *)
