(** The DBMS catalog: tables, their heap files, indexes, and ANALYZE-produced
    statistics, each table versioned from one catalog-wide clock. *)

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
  pool : Buffer_pool.t;  (** shared LRU buffer pool for all tables *)
  mutable clock : int;  (** the last version handed out *)
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
    clock = 0;
  }

let advance c t =
  c.clock <- c.clock + 1;
  t.version <- c.clock

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
      version = 0;
      stats = None;
      stats_version = 0;
    }
  in
  advance c table;
  Hashtbl.replace c.tables (key name) table;
  table

let drop c name =
  let t = find c name in
  Heap_file.invalidate t.file;
  Hashtbl.remove c.tables (key name)

let table_names c =
  Hashtbl.fold (fun _ t acc -> t.name :: acc) c.tables []
  |> List.sort String.compare

let append c t fill =
  advance c t;
  fill (fun tuple -> ignore (Heap_file.append t.file tuple))

let set_stats c t stats =
  advance c t;
  t.stats <- Some stats;
  t.stats_version <- t.version

let current_stats t = if t.stats_version = t.version then t.stats else None

let index_on t attr =
  List.find_opt
    (fun i -> String.equal (Ordered_index.attr i) (Schema.base_name attr))
    t.indexes

let index_flags t attr =
  match index_on t attr with
  | Some i -> (true, Ordered_index.clustered i)
  | None -> (false, false)

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
  let current = t.stats_version = t.version in
  advance c t;
  if current then t.stats_version <- t.version;
  idx
