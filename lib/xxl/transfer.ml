(** The transfer algorithms, `TRANSFER^M` and `TRANSFER^D` (paper
    Section 3.2), over the {!Tango_dbms.Backend} abstraction.

    `TRANSFER^M` issues a SELECT to one backend through the client boundary
    and streams the result tuples into the middleware (paying marshalling
    and round-trip costs per {!Tango_dbms.Client}).  Under a sharded
    topology, one `TRANSFER^M` per shard feeds a {!Gather} merge.

    `TRANSFER^D` creates a uniquely-named table and bulk-loads its whole
    argument into the DBMS at [init] time — the direct-path-load analogue.
    Its cursor yields nothing; the data is consumed on the DBMS side by SQL
    referencing the created table, so the execution engine runs `TRANSFER^D`
    nodes before the `TRANSFER^M` that depends on them (the dashed
    "sequence" edges of paper Figure 5).  Under a sharded topology the
    table is {e replicated}: every backend gets a full copy, so per-shard
    SQL sees it ({!transfer_d_all}). *)

open Tango_rel
open Tango_sql
open Tango_dbms

(* Time one boundary call against [backend]'s attribution lane; [rows]
   extracts the crossing volume from the result.  Byte accounting only
   runs when a collector is listening. *)
let attributed backend ~rows f =
  if not (Attribution.active ()) then f ()
  else begin
    let name = Backend.name backend in
    let t0 = Tango_obs.mono_us () in
    let g0 = Tango_obs.Runtime.point () in
    let finish r =
      (* allocation delta first, before the byte-size fold below
         allocates on our own account *)
      let alloc_bytes = (Tango_obs.Runtime.delta_since g0).alloc_bytes in
      let us = Tango_obs.mono_us () -. t0 in
      let tuples = rows r in
      let bytes =
        Array.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 tuples
      in
      Attribution.transfer ~backend:name ~rows:(Array.length tuples) ~bytes ~us
        ~alloc_bytes
    in
    match f () with
    | r ->
        finish r;
        r
    | exception e ->
        Attribution.transfer ~backend:name ~rows:0 ~bytes:0
          ~us:(Tango_obs.mono_us () -. t0)
          ~alloc_bytes:(Tango_obs.Runtime.delta_since g0).alloc_bytes;
        raise e
  end

let no_rows _ = [||]
let batch_rows = function Some b -> b | None -> [||]

(** `TRANSFER^M`.  [schema] is the expected output schema (from the algebra);
    the SQL's column order must match. *)
let transfer_m (backend : Backend.t) ~(schema : Schema.t) (sql : Ast.query) :
    Cursor.t =
  let cur = ref None in
  Cursor.observed "transfer_m"
    (Cursor.make ~schema
       ~init:(fun () ->
         cur :=
           Some
             (attributed backend ~rows:no_rows (fun () ->
                  Backend.execute_query backend sql)))
       ~next_batch:(fun () ->
         match !cur with
         | None -> invalid_arg "TRANSFER^M: pull before init"
         | Some c ->
             attributed backend ~rows:batch_rows (fun () ->
                 Backend.fetch_batch c)))

(* Load [arg]'s batches into [table] on every backend.  A single backend
   streams batch-at-a-time; with replicas the input is drained once and
   re-shipped to each. *)
let load_all (backends : Backend.t list) ~table schema (arg : Cursor.t) =
  Cursor.init arg;
  match backends with
  | [ b ] ->
      let rec batches () =
        match Cursor.next_batch arg with
        | None -> Seq.Nil
        | Some b -> Seq.Cons (b, batches)
      in
      let seq = Seq.concat_map Array.to_seq batches in
      (* the streamed load interleaves middleware pulls with the backend
         write, so the whole call counts as boundary time; rows were
         already counted crossing into the temp table by the meters *)
      ignore
        (attributed b ~rows:no_rows (fun () ->
             Backend.bulk_load b ~table schema seq))
  | bs ->
      let rec drain acc =
        match Cursor.next_batch arg with
        | None -> Array.concat (List.rev acc)
        | Some b -> drain (b :: acc)
      in
      let tuples = drain [] in
      List.iter
        (fun b ->
          ignore
            (attributed b ~rows:(fun _ -> tuples) (fun () ->
                 Backend.bulk_load b ~table schema (Array.to_seq tuples))))
        bs

(** `TRANSFER^D` to every backend of the topology: the created table is
    replicated, so any per-shard SQL can reference it.  The cursor itself
    is empty. *)
let transfer_d_all (backends : Backend.t list) ~(table : string)
    (arg : Cursor.t) : Cursor.t =
  let schema = Cursor.schema arg in
  Cursor.observed "transfer_d"
    (Cursor.make ~schema
       ~init:(fun () -> load_all backends ~table schema arg)
       ~next_batch:(fun () -> None))

(** `TRANSFER^D` to a single backend. *)
let transfer_d (backend : Backend.t) ~(table : string) (arg : Cursor.t) :
    Cursor.t =
  transfer_d_all [ backend ] ~table arg

(** Drop the temporary tables a query created ("the table must be dropped at
    the end of the query"). *)
let drop_temp_table (backend : Backend.t) (table : string) =
  if Backend.table_exists backend table then Backend.drop_table backend table
