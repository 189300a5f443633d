(** The middleware⇄DBMS boundary over one in-process database.  See the
    interface for the marshalling and metering contract. *)

open Tango_rel
open Tango_sql

type t = {
  name : string;
  db : Database.t;
  mutable row_prefetch : int;  (** tuples shipped per round trip *)
  mutable roundtrip_spin : int;  (** latency stand-in: spin iterations *)
  mutable roundtrips : int;
  mutable tuples_shipped : int;
  mutable bytes_shipped : int;  (** wire bytes *)
  c_roundtrips : Tango_obs.Counter.t;  (** [backend.<name>.*] mirrors *)
  c_tuples : Tango_obs.Counter.t;
  c_bytes : Tango_obs.Counter.t;
}

(* process-wide totals over every backend (see Tango_obs) *)
let c_roundtrips = Tango_obs.Counter.make "client.roundtrips"
let c_tuples_shipped = Tango_obs.Counter.make "client.tuples_shipped"
let c_bytes_shipped = Tango_obs.Counter.make "client.bytes_shipped"
let c_queries = Tango_obs.Counter.make "client.queries"
let c_bulk_loads = Tango_obs.Counter.make "client.bulk_loads"

let default_row_prefetch = 10 (* Oracle JDBC's historical default *)
let default_roundtrip_spin = 20_000

(* Every round trip ships at least one row. *)
let clamp_prefetch n = max 1 n

let in_process ?(name = "db") ?(row_prefetch = default_row_prefetch)
    ?(roundtrip_spin = default_roundtrip_spin) db =
  let c tail =
    Tango_obs.Counter.make (Printf.sprintf "backend.%s.%s" name tail)
  in
  {
    name;
    db;
    row_prefetch = clamp_prefetch row_prefetch;
    roundtrip_spin = max 0 roundtrip_spin;
    roundtrips = 0;
    tuples_shipped = 0;
    bytes_shipped = 0;
    c_roundtrips = c "roundtrips";
    c_tuples = c "tuples_shipped";
    c_bytes = c "bytes_shipped";
  }

let name b = b.name
let database b = Some b.db
let set_row_prefetch b n = b.row_prefetch <- clamp_prefetch n
let set_roundtrip_spin b n = b.roundtrip_spin <- max 0 n

let roundtrips b = b.roundtrips
let tuples_shipped b = b.tuples_shipped
let bytes_shipped b = b.bytes_shipped

let reset_meters b =
  b.roundtrips <- 0;
  b.tuples_shipped <- 0;
  b.bytes_shipped <- 0

(* The latency stand-in: a data-dependent spin the compiler cannot remove. *)
let spin b =
  let acc = ref 0 in
  for i = 1 to b.roundtrip_spin do
    acc := (!acc + i) land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* The one ship path: one round trip carries [batch] through a wire buffer
   (serialize + parse) and is metered once. *)
let ship b (batch : Tuple.t list) : Tuple.t list =
  spin b;
  let buf = Buffer.create 4096 in
  List.iter (Tuple.serialize buf) batch;
  let wire = Buffer.contents buf in
  let pos = ref 0 in
  let parsed =
    List.map
      (fun _ ->
        let t, p = Tuple.deserialize wire !pos in
        pos := p;
        t)
      batch
  in
  let tuples = List.length parsed and bytes = String.length wire in
  b.roundtrips <- b.roundtrips + 1;
  b.tuples_shipped <- b.tuples_shipped + tuples;
  b.bytes_shipped <- b.bytes_shipped + bytes;
  Tango_obs.Counter.incr b.c_roundtrips;
  Tango_obs.Counter.add b.c_tuples tuples;
  Tango_obs.Counter.add b.c_bytes bytes;
  Tango_obs.Counter.incr c_roundtrips;
  Tango_obs.Counter.add c_tuples_shipped tuples;
  Tango_obs.Counter.add c_bytes_shipped bytes;
  parsed

type cursor = {
  backend : t;
  mutable pending : Tuple.t list;  (** rows not yet shipped *)
}

(* Like a JDBC statement: the (already computed) result streams to the
   middleware as the cursor is advanced. *)
let execute_query b (q : Ast.query) : cursor =
  Tango_obs.Counter.incr c_queries;
  {
    backend = b;
    pending = Array.to_list (Relation.tuples (Database.query_ast b.db q));
  }

let fetch_batch (cur : cursor) : Tuple.t array option =
  match cur.pending with
  | [] -> None
  | pending ->
      let rec take k = function
        | x :: rest when k > 0 ->
            let taken, rem = take (k - 1) rest in
            (x :: taken, rem)
        | rest -> ([], rest)
      in
      let batch, rest = take cur.backend.row_prefetch pending in
      cur.pending <- rest;
      Some (Array.of_list (ship cur.backend batch))

(* Stream the tuples into a fresh table in prefetch-sized batches, writing
   them straight into fresh pages. *)
let bulk_load b ~table (schema : Schema.t) (tuples : Tuple.t Seq.t) : string =
  Tango_obs.Counter.incr c_bulk_loads;
  Database.create_table b.db table (Schema.unqualify schema);
  let cat_table = Catalog.find (Database.catalog b.db) table in
  let batch = ref [] in
  let batch_len = ref 0 in
  let flush () =
    if !batch_len > 0 then begin
      List.iter
        (fun t ->
          ignore (Tango_storage.Heap_file.append cat_table.Catalog.file t))
        (ship b (List.rev !batch));
      batch := [];
      batch_len := 0
    end
  in
  Seq.iter
    (fun t ->
      batch := t :: !batch;
      incr batch_len;
      if !batch_len >= b.row_prefetch then flush ())
    tuples;
  flush ();
  table

let drop_table b table =
  if Database.table_exists b.db table then Database.drop_table b.db table

let table_exists b table = Database.table_exists b.db table
