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
  mutable schema_generation : int;
}

type result = Rows of Relation.t | Ok_count of int

let create ?pool_pages () =
  {
    catalog = Catalog.create ?pool_pages ();
    settings = Executor.default_settings ();
    temp_counter = 0;
    schema_generation = 0;
  }

let schema_generation db = db.schema_generation

let temp_prefix = "TANGO_TMP_"

let is_temp_table name =
  String.length name >= String.length temp_prefix
  && String.sub name 0 (String.length temp_prefix) = temp_prefix

(* DDL/ANALYZE on real tables advances the generation (plan caches key on
   it); `TRANSFER^D` temp tables come and go on every query and must not. *)
let bump_generation db name =
  if not (is_temp_table name) then
    db.schema_generation <- db.schema_generation + 1

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
      bump_generation db name;
      Ok_count 0
  | Ast.Drop_table name ->
      Catalog.drop db.catalog name;
      bump_generation db name;
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
      List.iter
        (fun row ->
          if List.length row <> Schema.arity schema then
            raise
              (Executor.Sql_error
                 (Printf.sprintf "INSERT arity mismatch for %s" name));
          ignore
            (Tango_storage.Heap_file.append table.Catalog.file
               (Tuple.of_list (List.mapi coerce row))))
        rows;
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
let create_table db name schema =
  ignore (Catalog.add db.catalog name schema);
  bump_generation db name

let drop_table db name =
  Catalog.drop db.catalog name;
  bump_generation db name

let table_exists db name = Catalog.mem db.catalog name

let table_schema db name =
  Tango_storage.Heap_file.schema (Catalog.find db.catalog name).Catalog.file

let table_cardinality db name =
  Tango_storage.Heap_file.tuple_count (Catalog.find db.catalog name).Catalog.file

(** Bulk-load a relation into an existing table (conventional path: one
    append per tuple). *)
let load db name (r : Relation.t) =
  let table = Catalog.find db.catalog name in
  Relation.iter
    (fun t -> ignore (Tango_storage.Heap_file.append table.Catalog.file t))
    r

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
  ignore (Catalog.add_index db.catalog table ~clustered attr);
  bump_generation db table

(** ANALYZE a table (see {!Analyze.run}).  [bump:false] is for the
    middleware's internal statistics collection: it re-runs ANALYZE as an
    implementation detail and must not advance the schema generation,
    which would flush plan caches keyed on it. *)
let analyze db ?histograms ?buckets ?(bump = true) name : Stat.table_stats =
  let r = Analyze.run ?histograms ?buckets (Catalog.find db.catalog name) in
  if bump then bump_generation db name;
  r

let analyze_all db ?histograms ?buckets () =
  List.iter
    (fun name -> ignore (analyze db ?histograms ?buckets name))
    (Catalog.table_names db.catalog)

let stats_of db name = (Catalog.find db.catalog name).Catalog.stats
