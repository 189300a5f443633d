(** The DBMS catalog: tables, their heap files, indexes, and ANALYZE-produced
    statistics. *)

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
  pool : Buffer_pool.t;  (** shared LRU buffer pool for all tables *)
}

exception Table_exists of string
exception No_such_table of string

(** Default pool: 1024 pages (8 MB at the default page size). *)
let default_pool_pages = 1_024

let create ?(pool_pages = default_pool_pages) () =
  {
    tables = Hashtbl.create 16;
    io = Io_stats.create ();
    pool = Buffer_pool.create ~capacity:pool_pages;
  }

let key name = String.uppercase_ascii name

let mem c name = Hashtbl.mem c.tables (key name)

let find c name =
  match Hashtbl.find_opt c.tables (key name) with
  | Some t -> t
  | None -> raise (No_such_table name)

let add c name schema =
  if mem c name then raise (Table_exists name);
  let table =
    {
      name;
      file = Heap_file.create ~pool:c.pool ~stats:c.io schema;
      indexes = [];
      stats = None;
    }
  in
  Hashtbl.replace c.tables (key name) table;
  table

let drop c name =
  let t = find c name in
  Heap_file.invalidate t.file;
  Hashtbl.remove c.tables (key name)

let table_names c =
  Hashtbl.fold (fun _ t acc -> t.name :: acc) c.tables []
  |> List.sort String.compare

let index_on t attr =
  List.find_opt
    (fun i -> String.equal (Ordered_index.attr i) (Schema.base_name attr))
    t.indexes

let index_flags t attr =
  match index_on t attr with
  | Some i -> (true, Ordered_index.clustered i)
  | None -> (false, false)

(** Register an index on [attr]; replaces any previous index on the same
    attribute.  Index availability is catalog data, not an ANALYZE result,
    so the table's statistics (if any) get their flags updated in place. *)
let add_index c name ?(clustered = false) attr =
  let t = find c name in
  let idx = Ordered_index.build ~clustered ~stats:c.io t.file attr in
  t.indexes <-
    idx :: List.filter (fun i -> not (String.equal (Ordered_index.attr i) attr)) t.indexes;
  t.stats <-
    Option.map
      (fun (ts : Stat.table_stats) ->
        let flag (cs : Stat.column_stats) =
          let indexed, clustered = index_flags t cs.col in
          { cs with indexed; clustered }
        in
        { ts with columns = List.map flag ts.columns })
      t.stats;
  idx
