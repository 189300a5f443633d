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
  mutable queries : int;  (** statements opened *)
  mutable bulk_loads : int;
  wire : Buffer.t;  (** the outgoing side of every round trip, reused *)
  mutable landing : Bytes.t;  (** the receiving side, reused *)
  mutable open_cursors : cursor list;  (** statements not yet ended *)
}

and cursor = {
  backend : t;
  mutable stream : Executor.stream option;  (** [None] once ended *)
  mutable pending : Tuple.t array;  (** the executor's current batch *)
  mutable next : int;  (** its first row not yet shipped *)
}

let default_row_prefetch = 10 (* Oracle JDBC's historical default *)
let default_roundtrip_spin = 20_000

(* Every round trip ships at least one row. *)
let clamp_prefetch n = max 1 n

let in_process ?(name = "db") ?(row_prefetch = default_row_prefetch)
    ?(roundtrip_spin = default_roundtrip_spin) db =
  {
    name;
    db;
    row_prefetch = clamp_prefetch row_prefetch;
    roundtrip_spin = max 0 roundtrip_spin;
    roundtrips = 0;
    tuples_shipped = 0;
    bytes_shipped = 0;
    queries = 0;
    bulk_loads = 0;
    wire = Buffer.create 4096;
    landing = Bytes.create 4096;
    open_cursors = [];
  }

let name b = b.name
let database b = Some b.db
let set_row_prefetch b n = b.row_prefetch <- clamp_prefetch n
let set_roundtrip_spin b n = b.roundtrip_spin <- max 0 n

let roundtrips b = b.roundtrips
let tuples_shipped b = b.tuples_shipped
let bytes_shipped b = b.bytes_shipped
let queries b = b.queries
let bulk_loads b = b.bulk_loads

let reset_meters b =
  b.roundtrips <- 0;
  b.tuples_shipped <- 0;
  b.bytes_shipped <- 0;
  b.queries <- 0;
  b.bulk_loads <- 0

(* The latency stand-in: a data-dependent spin the compiler cannot remove.
   Two steps per pass keep it bound by the [acc] dependency chain, not by
   instruction fetch, whose speed depends on where the loop lands
   relative to 64-byte lines (a one-step loop runs up to 1.7x slower when
   it straddles one), so the simulated latency does not move with the
   code layout of unrelated modules. *)
let spin b =
  let n = b.roundtrip_spin in
  let acc = ref 0 in
  for k = 0 to (n / 2) - 1 do
    let i = (2 * k) + 1 in
    acc := (((!acc + i) land 0xFFFF) + i + 1) land 0xFFFF
  done;
  if n land 1 = 1 then acc := (!acc + n) land 0xFFFF;
  ignore (Sys.opaque_identity !acc)

(* The one ship path: one round trip carries the [n] tuples serialized
   in [b.wire] to the other side, where they are parsed straight into the
   batch array, and is metered once. *)
let ship b n : Tuple.t array =
  spin b;
  let bytes = Buffer.length b.wire in
  if Bytes.length b.landing < bytes then
    b.landing <- Bytes.create (max bytes (2 * Bytes.length b.landing));
  Buffer.blit b.wire 0 b.landing 0 bytes;
  let r = Value.reader (Bytes.unsafe_to_string b.landing) 0 in
  let parsed = Array.init n (fun _ -> Tuple.read r) in
  b.roundtrips <- b.roundtrips + 1;
  b.tuples_shipped <- b.tuples_shipped + n;
  b.bytes_shipped <- b.bytes_shipped + bytes;
  parsed

(* Like a JDBC statement: the server compiles it now and executes it as
   the cursor is advanced, one executor batch at a time. *)
let execute_query b (q : Ast.query) : cursor =
  b.queries <- b.queries + 1;
  let cur =
    { backend = b; stream = Some (Database.open_query b.db q); pending = [||]; next = 0 }
  in
  b.open_cursors <- cur :: b.open_cursors;
  cur

(* End the statement and drop everything it holds. *)
let release (cur : cursor) =
  match cur.stream with
  | None -> ()
  | Some s ->
      Executor.close s;
      cur.stream <- None;
      cur.pending <- [||];
      let b = cur.backend in
      b.open_cursors <- List.filter (fun c -> c != cur) b.open_cursors

let close_cursors b = List.iter release b.open_cursors

(* Serialize exactly [row_prefetch] rows (fewer only at exhaustion),
   pulling executor batches as needed; an exhausted statement is released
   before its last batch ships. *)
let fetch_batch (cur : cursor) : Tuple.t array option =
  let b = cur.backend in
  Buffer.clear b.wire;
  let rec fill n =
    if n = b.row_prefetch then n
    else if cur.next < Array.length cur.pending then begin
      Tuple.serialize b.wire cur.pending.(cur.next);
      cur.next <- cur.next + 1;
      fill (n + 1)
    end
    else
      match cur.stream with
      | None -> n
      | Some s -> (
          match Executor.next_batch s with
          | Some batch ->
              cur.pending <- batch;
              cur.next <- 0;
              fill n
          | None ->
              release cur;
              n)
  in
  match fill 0 with 0 -> None | n -> Some (ship b n)

(* Stream the tuples into a fresh table in prefetch-sized batches, writing
   them straight into fresh pages.  A batch is collected before it is
   serialized: pulling [tuples] may run a cursor on this same backend,
   which reuses the wire buffer. *)
let bulk_load b ~table (schema : Schema.t) (tuples : Tuple.t Seq.t) : string =
  b.bulk_loads <- b.bulk_loads + 1;
  Database.create_table b.db table (Schema.unqualify schema);
  let cat = Database.catalog b.db in
  Catalog.append cat (Catalog.find cat table) (fun add ->
      let batch = ref [] in
      let batch_len = ref 0 in
      let flush () =
        if !batch_len > 0 then begin
          Buffer.clear b.wire;
          List.iter (Tuple.serialize b.wire) (List.rev !batch);
          Array.iter add (ship b !batch_len);
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
      flush ());
  table

let drop_table b table =
  if Database.table_exists b.db table then Database.drop_table b.db table

let table_exists b table = Database.table_exists b.db table
