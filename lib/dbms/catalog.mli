(** The DBMS catalog: tables, their heap files, indexes, and
    ANALYZE-produced statistics, sharing one I/O accounting record and one
    buffer pool. *)

open Tango_rel
open Tango_storage

type table = {
  name : string;
  file : Heap_file.t;
  mutable indexes : Ordered_index.t list;
  mutable stats : Stat.table_stats option;  (** set by ANALYZE *)
}

type t = {
  tables : (string, table) Hashtbl.t;
  io : Io_stats.t;
  pool : Buffer_pool.t;
}

exception Table_exists of string
exception No_such_table of string

val create : ?pool_pages:int -> unit -> t

val mem : t -> string -> bool
val find : t -> string -> table

val add : t -> string -> Schema.t -> table
val drop : t -> string -> unit
val table_names : t -> string list

val add_index : t -> string -> ?clustered:bool -> string -> Ordered_index.t
(** Build an index on the named attribute (replacing any previous index on
    it). *)

val index_on : table -> string -> Ordered_index.t option
