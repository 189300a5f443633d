(** The DBMS catalog: tables, their heap files, indexes, and
    ANALYZE-produced statistics, sharing one I/O accounting record and one
    buffer pool.

    {b Versions.}  Every change to a table — its creation, each append
    (one per statement or load), index DDL and ANALYZE — gives it a new
    [version] from the catalog-wide [clock].  The clock never goes back,
    so a dropped and re-created table cannot repeat a version.  A
    version is the one freshness token: the catalog records the version
    a table's statistics describe, and the middleware's cached plans the
    versions of the tables they read. *)

open Tango_rel
open Tango_storage

type table = {
  name : string;
  file : Heap_file.t;
  mutable indexes : Ordered_index.t list;
  mutable version : int;
  mutable stats : Stat.table_stats option;  (** set by ANALYZE *)
  mutable stats_version : int;  (** the [version] [stats] describe *)
}

type t = {
  tables : (string, table) Hashtbl.t;
  io : Io_stats.t;
  pool : Buffer_pool.t;
  mutable clock : int;  (** the last version handed out *)
}

exception Table_exists of string
exception No_such_table of string

val create : ?pool_pages:int -> unit -> t

val mem : t -> string -> bool
val find : t -> string -> table

val add : t -> string -> Schema.t -> table
val drop : t -> string -> unit
val table_names : t -> string list

val append : t -> table -> ((Tuple.t -> unit) -> unit) -> unit
(** [append c t fill] advances [t]'s version once, then appends every
    tuple [fill] passes to its argument: a statement or a load is one
    change, however many rows it writes. *)

val set_stats : t -> table -> Stat.table_stats -> unit
(** Attach ANALYZE's statistics: advances the version and stamps the
    statistics with it. *)

val current_stats : table -> Stat.table_stats option
(** The statistics, when they describe the table's current version. *)

val add_index : t -> string -> ?clustered:bool -> string -> Ordered_index.t
(** Build an index on the named attribute (replacing any previous index on
    it) and advance the version.  Index availability is catalog data, not
    an ANALYZE result: the statistics' [indexed]/[clustered] flags are
    updated in place, and statistics that were current stay current. *)

val index_on : table -> string -> Ordered_index.t option

val index_flags : table -> string -> bool * bool
(** [(indexed, clustered)] for the named attribute. *)
