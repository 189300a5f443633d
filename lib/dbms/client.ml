(** The middleware⇄DBMS boundary — the JDBC stand-in.

    Everything the middleware moves across this boundary pays real
    marshalling work: each tuple is serialized into a wire buffer and parsed
    back on the other side.  Fetches are batched by a row-prefetch setting
    (the paper notes Oracle JDBC's row-prefetch affects `TRANSFER^M`
    performance); each round trip additionally costs a fixed CPU spin that
    stands in for network latency, so small prefetch values hurt, as they do
    over a real wire. *)

open Tango_rel
open Tango_sql

type t = {
  db : Database.t;
  mutable row_prefetch : int;  (** tuples fetched per round trip *)
  mutable roundtrip_spin : int;  (** latency stand-in: spin iterations *)
  mutable roundtrips : int;  (** counter: round trips performed *)
  mutable tuples_shipped : int;  (** counter: tuples across the boundary *)
  mutable bytes_shipped : int;  (** counter: wire bytes across the boundary *)
}

(* process-wide mirrors of the boundary counters (see Tango_obs) *)
let c_roundtrips = Tango_obs.Counter.make "client.roundtrips"
let c_tuples_shipped = Tango_obs.Counter.make "client.tuples_shipped"
let c_bytes_shipped = Tango_obs.Counter.make "client.bytes_shipped"
let c_queries = Tango_obs.Counter.make "client.queries"
let c_bulk_loads = Tango_obs.Counter.make "client.bulk_loads"

let default_row_prefetch = 10 (* Oracle JDBC's historical default *)
let default_roundtrip_spin = 20_000

(* Every round trip ships at least one row. *)
let clamp_prefetch n = max 1 n

let connect ?(row_prefetch = default_row_prefetch)
    ?(roundtrip_spin = default_roundtrip_spin) db =
  { db; row_prefetch = clamp_prefetch row_prefetch; roundtrip_spin;
    roundtrips = 0; tuples_shipped = 0; bytes_shipped = 0 }

let database c = c.db
let set_row_prefetch c n = c.row_prefetch <- clamp_prefetch n
let row_prefetch c = c.row_prefetch
let set_roundtrip_spin c n = c.roundtrip_spin <- max 0 n

let reset_counters c =
  c.roundtrips <- 0;
  c.tuples_shipped <- 0;
  c.bytes_shipped <- 0

let roundtrips c = c.roundtrips
let tuples_shipped c = c.tuples_shipped
let bytes_shipped c = c.bytes_shipped

(* The latency stand-in: a data-dependent spin the compiler cannot remove. *)
let spin c =
  c.roundtrips <- c.roundtrips + 1;
  Tango_obs.Counter.incr c_roundtrips;
  let acc = ref 0 in
  for i = 1 to c.roundtrip_spin do
    acc := (!acc + i) land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* Ship a batch of tuples through a wire buffer (serialize + deserialize);
   returns the parsed tuples and the wire size in bytes. *)
let ship_batch c (batch : Tuple.t list) : Tuple.t list * int =
  spin c;
  let buf = Buffer.create 4096 in
  List.iter (Tuple.serialize buf) batch;
  let wire = Buffer.contents buf in
  let nbytes = String.length wire in
  c.bytes_shipped <- c.bytes_shipped + nbytes;
  Tango_obs.Counter.add c_bytes_shipped nbytes;
  let pos = ref 0 in
  let parsed =
    List.map
      (fun _ ->
        let t, p = Tuple.deserialize wire !pos in
        pos := p;
        c.tuples_shipped <- c.tuples_shipped + 1;
        Tango_obs.Counter.incr c_tuples_shipped;
        t)
      batch
  in
  (parsed, nbytes)

(** A server-side cursor being drained by the middleware.  Each cursor
    accounts the marshalling work it caused: round trips, tuples and wire
    bytes shipped on its behalf. *)
type cursor = {
  schema : Schema.t;
  mutable pending : Tuple.t list;  (** rows not yet shipped *)
  client : t;
  mutable cur_roundtrips : int;
  mutable cur_tuples : int;
  mutable cur_bytes : int;
}

(** Execute a query and open a cursor over its (already computed) result.
    Like a JDBC statement, the rows stream to the client in prefetch-sized
    batches as the cursor is advanced. *)
let cursor_of_relation c rel =
  {
    schema = Relation.schema rel;
    pending = Array.to_list (Relation.tuples rel);
    client = c;
    cur_roundtrips = 0;
    cur_tuples = 0;
    cur_bytes = 0;
  }

let execute_query c (sql : string) : cursor =
  Tango_obs.Counter.incr c_queries;
  cursor_of_relation c (Database.query c.db sql)

let execute_query_ast c (q : Ast.query) : cursor =
  Tango_obs.Counter.incr c_queries;
  cursor_of_relation c (Database.query_ast c.db q)

let cursor_schema cur = cur.schema
let cursor_roundtrips cur = cur.cur_roundtrips
let cursor_tuples cur = cur.cur_tuples
let cursor_bytes cur = cur.cur_bytes

(** Ship the next prefetch-sized batch of rows over the wire: one round
    trip per call, or [None] once every row has been shipped. *)
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
      let batch, rest = take cur.client.row_prefetch pending in
      cur.pending <- rest;
      let shipped, nbytes = ship_batch cur.client batch in
      cur.cur_roundtrips <- cur.cur_roundtrips + 1;
      cur.cur_tuples <- cur.cur_tuples + List.length shipped;
      cur.cur_bytes <- cur.cur_bytes + nbytes;
      Some (Array.of_list shipped)

(** Drain a cursor into a relation (paying all transfer work). *)
let fetch_all (cur : cursor) : Relation.t =
  let rec go acc =
    match fetch_batch cur with
    | None -> Array.concat (List.rev acc)
    | Some b -> go (b :: acc)
  in
  Relation.make cur.schema (go [])

(** Run a non-query statement. *)
let execute_update c (sql : string) : int =
  match Database.execute c.db sql with
  | Database.Ok_count n -> n
  | Database.Rows _ -> 0

(** Direct-path bulk load — the SQL*Loader analogue used by `TRANSFER^D`.
    Creates the table and streams tuples to the server in prefetch-sized
    batches, writing them straight into fresh pages.  Returns the created
    table's name. *)
let bulk_load c ~table (schema : Schema.t) (tuples : Tuple.t Seq.t) : string =
  Tango_obs.Counter.incr c_bulk_loads;
  Database.create_table c.db table (Schema.unqualify schema);
  let cat_table = Catalog.find (Database.catalog c.db) table in
  let batch = ref [] in
  let batch_len = ref 0 in
  let flush () =
    if !batch_len > 0 then begin
      let shipped, _ = ship_batch c (List.rev !batch) in
      List.iter
        (fun t ->
          ignore (Tango_storage.Heap_file.append cat_table.Catalog.file t))
        shipped;
      batch := [];
      batch_len := 0
    end
  in
  Seq.iter
    (fun t ->
      batch := t :: !batch;
      incr batch_len;
      if !batch_len >= c.row_prefetch then flush ())
    tuples;
  flush ();
  table
