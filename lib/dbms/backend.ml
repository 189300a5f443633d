(** Backend: the packed DBMS-under-the-middleware abstraction.  See the
    interface for the contract. *)

open Tango_rel
open Tango_sql

module type S = sig
  type conn
  type cursor

  val kind : string
  val execute_query : conn -> Ast.query -> cursor
  val cursor_schema : cursor -> Schema.t
  val fetch_batch : cursor -> Tuple.t array option
  val execute_update : conn -> string -> int
  val bulk_load : conn -> table:string -> Schema.t -> Tuple.t Seq.t -> string
  val drop_table : conn -> string -> unit
  val table_exists : conn -> string -> bool
  val table_schema : conn -> string -> Schema.t

  val analyze :
    conn -> ?histograms:[ `All | `Cols of string list | `None ] -> string -> unit

  val schema_generation : conn -> int
  val counters : conn -> int * int * int
  val close : conn -> unit
end

(* Per-backend meters: session totals plus process-wide mirrors (the
   [backend.<name>.*] names the Prometheus endpoint renders).  Counters are
   find-or-create by name, so two backends with the same name share the
   process-wide mirrors — sessions should pick distinct shard names. *)
type meters = {
  mutable m_roundtrips : int;
  mutable m_tuples : int;
  mutable m_bytes : int;
  c_roundtrips : Tango_obs.Counter.t;
  c_tuples : Tango_obs.Counter.t;
  c_bytes : Tango_obs.Counter.t;
}

(* The pack is a record of closures over the implementation's connection —
   the existential: [conn]/[cursor] never escape. *)
type cursor = {
  cur_schema : Schema.t;
  cur_fetch_batch : unit -> Tuple.t array option;
}

type t = {
  name : string;
  kind_ : string;
  client_opt : Client.t option;
  meters : meters;
  f_counters : unit -> int * int * int;
  f_query : Ast.query -> cursor;
  f_update : string -> int;
  f_bulk_load : table:string -> Schema.t -> Tuple.t Seq.t -> string;
  f_drop_table : string -> unit;
  f_table_exists : string -> bool;
  f_table_schema : string -> Schema.t;
  f_analyze :
    histograms:[ `All | `Cols of string list | `None ] option -> string -> unit;
  f_generation : unit -> int;
  f_close : unit -> unit;
}

let make_meters name =
  let c tail = Tango_obs.Counter.make (Printf.sprintf "backend.%s.%s" name tail) in
  { m_roundtrips = 0; m_tuples = 0; m_bytes = 0;
    c_roundtrips = c "roundtrips"; c_tuples = c "tuples_shipped";
    c_bytes = c "bytes_shipped" }

(* Account the boundary work [f] caused, by diffing the implementation's
   connection counters around the call.  All crossings — queries, fetches,
   bulk loads — flow through the same meter. *)
let metered meters counters f =
  let r0, t0, y0 = counters () in
  let finish () =
    let r1, t1, y1 = counters () in
    let dr = r1 - r0 and dt = t1 - t0 and dy = y1 - y0 in
    if dr <> 0 then begin
      meters.m_roundtrips <- meters.m_roundtrips + dr;
      Tango_obs.Counter.add meters.c_roundtrips dr
    end;
    if dt <> 0 then begin
      meters.m_tuples <- meters.m_tuples + dt;
      Tango_obs.Counter.add meters.c_tuples dt
    end;
    if dy <> 0 then begin
      meters.m_bytes <- meters.m_bytes + dy;
      Tango_obs.Counter.add meters.c_bytes dy
    end
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let make (type c) (module M : S with type conn = c) (conn : c) ~name ?client ()
    : t =
  let meters = make_meters name in
  let counters () = M.counters conn in
  let m f = metered meters counters f in
  {
    name;
    kind_ = M.kind;
    client_opt = client;
    meters;
    f_counters = counters;
    f_query =
      (fun q ->
        let cur = m (fun () -> M.execute_query conn q) in
        {
          cur_schema = M.cursor_schema cur;
          cur_fetch_batch = (fun () -> m (fun () -> M.fetch_batch cur));
        });
    f_update = (fun sql -> m (fun () -> M.execute_update conn sql));
    f_bulk_load =
      (fun ~table schema seq ->
        m (fun () -> M.bulk_load conn ~table schema seq));
    f_drop_table = (fun tbl -> M.drop_table conn tbl);
    f_table_exists = (fun tbl -> M.table_exists conn tbl);
    f_table_schema = (fun tbl -> M.table_schema conn tbl);
    f_analyze = (fun ~histograms tbl -> M.analyze conn ?histograms tbl);
    f_generation = (fun () -> M.schema_generation conn);
    f_close = (fun () -> M.close conn);
  }

module In_process : S with type conn = Client.t = struct
  type conn = Client.t
  type cursor = Client.cursor

  let kind = "in_process"
  let execute_query = Client.execute_query_ast
  let cursor_schema = Client.cursor_schema
  let fetch_batch = Client.fetch_batch
  let execute_update = Client.execute_update
  let bulk_load = Client.bulk_load

  let drop_table c table =
    if Database.table_exists (Client.database c) table then
      Database.drop_table (Client.database c) table

  let table_exists c table = Database.table_exists (Client.database c) table
  let table_schema c table = Database.table_schema (Client.database c) table

  let analyze c ?histograms table =
    ignore (Database.analyze (Client.database c) ?histograms table)

  let schema_generation c = Database.schema_generation (Client.database c)

  let counters c =
    (Client.roundtrips c, Client.tuples_shipped c, Client.bytes_shipped c)

  let close _ = ()
end

let of_client ?(name = "db") client =
  make (module In_process) client ~name ~client ()

let in_process ?(name = "db") ?row_prefetch ?roundtrip_spin db =
  of_client ~name (Client.connect ?row_prefetch ?roundtrip_spin db)

let name b = b.name
let kind b = b.kind_
let client b = b.client_opt
let database b = Option.map Client.database b.client_opt

let execute_query b q = b.f_query q
let cursor_schema cur = cur.cur_schema
let fetch_batch cur = cur.cur_fetch_batch ()
let execute_update b sql = b.f_update sql
let bulk_load b ~table schema seq = b.f_bulk_load ~table schema seq
let drop_table b table = b.f_drop_table table
let table_exists b table = b.f_table_exists table
let table_schema b table = b.f_table_schema table
let analyze b ?histograms table = b.f_analyze ~histograms table
let schema_generation b = b.f_generation ()
let close b = b.f_close ()

let set_row_prefetch b n =
  Option.iter (fun c -> Client.set_row_prefetch c n) b.client_opt

let set_roundtrip_spin b n =
  Option.iter (fun c -> Client.set_roundtrip_spin c n) b.client_opt

let roundtrips b = b.meters.m_roundtrips
let tuples_shipped b = b.meters.m_tuples
let bytes_shipped b = b.meters.m_bytes

let reset_meters b =
  b.meters.m_roundtrips <- 0;
  b.meters.m_tuples <- 0;
  b.meters.m_bytes <- 0
