(** The database façade — the "conventional DBMS" that TANGO sits on top of.

    Accepts SQL text (or pre-parsed statements), maintains the catalog, and
    exposes ANALYZE and index DDL.  The middleware accesses it only through
    this module and {!Backend}, mirroring the paper's JDBC boundary. *)

open Tango_rel
open Tango_sql

type t = {
  catalog : Catalog.t;
  settings : Executor.settings;
  mutable temp_counter : int;
}

type result = Rows of Relation.t | Ok_count of int

let create ?pool_pages () =
  {
    catalog = Catalog.create ?pool_pages ();
    settings = Executor.default_settings ();
    temp_counter = 0;
  }

let catalog db = db.catalog
let io_stats db = db.catalog.Catalog.io

(** Force/unforce a join method — the stand-in for Oracle hints used by the
    Query 4 experiment. *)
let set_join_method db m = db.settings.Executor.join_method <- m

let schema_of_defs defs =
  Schema.make
    (List.map (fun d -> (d.Ast.col_name, d.Ast.col_type)) defs)

(** Execute a parsed statement. *)
let execute_ast db (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Query q ->
      Rows (Executor.run_query ~settings:db.settings db.catalog q)
  | Ast.Create_table (name, defs) ->
      ignore (Catalog.add db.catalog name (schema_of_defs defs));
      Ok_count 0
  | Ast.Drop_table name ->
      Catalog.drop db.catalog name;
      Ok_count 0
  | Ast.Insert (name, rows) ->
      let table = Catalog.find db.catalog name in
      let schema = Tango_storage.Heap_file.schema table.Catalog.file in
      (* Literal coercion to declared column types (INT literals are valid
         DATE/FLOAT values, as in SQL). *)
      let coerce i (v : Value.t) =
        match (Schema.dtype_at schema i, v) with
        | Value.TDate, Value.Int d -> Value.Date d
        | Value.TFloat, Value.Int x -> Value.Float (float_of_int x)
        | _, v -> v
      in
      Catalog.append db.catalog table (fun add ->
          List.iter
            (fun row ->
              if List.length row <> Schema.arity schema then
                raise
                  (Executor.Sql_error
                     (Printf.sprintf "INSERT arity mismatch for %s" name));
              add (Tuple.of_list (List.mapi coerce row)))
            rows);
      Ok_count (List.length rows)

(** Execute SQL text. *)
let execute db sql : result = execute_ast db (Parser.statement sql)

(** Run a query and return its rows; raises on DDL. *)
let query db sql : Relation.t =
  match execute db sql with
  | Rows r -> r
  | Ok_count _ -> raise (Executor.Sql_error "expected a query")

let query_ast db q : Relation.t =
  Executor.run_query ~settings:db.settings db.catalog q

let open_query db q : Executor.stream =
  Executor.open_query ~settings:db.settings db.catalog q

(** Create a table directly from a schema (bypassing SQL DDL). *)
let create_table db name schema = ignore (Catalog.add db.catalog name schema)
let drop_table db name = Catalog.drop db.catalog name

let table_exists db name = Catalog.mem db.catalog name

let table_schema db name =
  Tango_storage.Heap_file.schema (Catalog.find db.catalog name).Catalog.file

let table_cardinality db name =
  Tango_storage.Heap_file.tuple_count (Catalog.find db.catalog name).Catalog.file

(** Bulk-load a relation into an existing table (conventional path: one
    append per tuple). *)
let load db name (r : Relation.t) =
  Catalog.append db.catalog (Catalog.find db.catalog name) (fun add ->
      Relation.iter add r)

(** Create-and-load in one step, used by workload setup. *)
let load_relation db name (r : Relation.t) =
  create_table db name (Schema.unqualify (Relation.schema r));
  load db name r

(** Fresh temporary-table name; the paper notes transfer tables "must be
    unique ... and dropped at the end of the query". *)
let fresh_temp_name db =
  db.temp_counter <- db.temp_counter + 1;
  Printf.sprintf "TANGO_TMP_%d" db.temp_counter

let create_index db ?(clustered = false) table attr =
  ignore (Catalog.add_index db.catalog table ~clustered attr)

(** ANALYZE a table (see {!Analyze.run}) and attach the statistics to the
    catalog, which advances the table's version. *)
let analyze db ?histograms name : Stat.table_stats =
  let table = Catalog.find db.catalog name in
  let stats = Analyze.run ?histograms table in
  Catalog.set_stats db.catalog table stats;
  stats

let analyze_all db ?histograms () =
  List.iter
    (fun name -> ignore (analyze db ?histograms name))
    (Catalog.table_names db.catalog)

let stats_of db name = (Catalog.find db.catalog name).Catalog.stats

let current_stats db name = Catalog.current_stats (Catalog.find db.catalog name)

let table_version db name =
  if Catalog.mem db.catalog name then
    Some (Catalog.find db.catalog name).Catalog.version
  else None
