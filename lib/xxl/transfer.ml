(** The transfer algorithms, `TRANSFER^M` and `TRANSFER^D` (paper
    Section 3.2), over the {!Tango_dbms.Backend} abstraction.

    `TRANSFER^M` issues a SELECT to one backend and streams the result
    tuples into the middleware, paying the marshalling and round-trip costs
    of the {!Tango_dbms.Backend} boundary.  Under a sharded
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

(* Calls nest: a streamed `TRANSFER^D` pulls its argument, possibly a
   `TRANSFER^M` on the same backend, from inside the bulk load.  Only the
   outermost call on a domain records, so nothing is counted twice. *)
let depth = Domain.DLS.new_key (fun () -> ref 0)

(* Time one boundary call against [backend]'s attribution lane; the rows
   and bytes recorded are the backend meter's delta across the call. *)
let attributed backend f =
  let d = Domain.DLS.get depth in
  if !d > 0 || not (Attribution.active ()) then f ()
  else begin
    let t0 = Tango_obs.mono_us () in
    let m0 = Tango_obs.Runtime.mark () in
    let rows0 = Backend.tuples_shipped backend in
    let bytes0 = Backend.bytes_shipped backend in
    let finish () =
      decr d;
      let alloc_bytes = Tango_obs.Runtime.allocated_since m0 in
      Attribution.transfer ~backend:(Backend.name backend)
        ~rows:(Backend.tuples_shipped backend - rows0)
        ~bytes:(Backend.bytes_shipped backend - bytes0)
        ~us:(Tango_obs.mono_us () -. t0)
        ~alloc_bytes
    in
    incr d;
    Fun.protect ~finally:finish f
  end

(** `TRANSFER^M`.  [schema] is the expected output schema (from the algebra);
    the SQL's column order must match. *)
let transfer_m (backend : Backend.t) ~(schema : Schema.t) (sql : Ast.query) :
    Cursor.t =
  let cur = ref None in
  Cursor.make ~schema
    ~init:(fun () ->
      cur :=
        Some
          (attributed backend (fun () ->
               Backend.execute_query backend sql)))
    ~next_batch:(fun () ->
      match !cur with
      | None -> invalid_arg "TRANSFER^M: pull before init"
      | Some c ->
          attributed backend (fun () -> Backend.fetch_batch c))

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
         write, so the whole call counts as boundary time *)
      ignore (attributed b (fun () -> Backend.bulk_load b ~table schema seq))
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
            (attributed b (fun () ->
                 Backend.bulk_load b ~table schema (Array.to_seq tuples))))
        bs

(** `TRANSFER^D` to every backend of the topology: the created table is
    replicated, so any per-shard SQL can reference it.  The cursor itself
    is empty. *)
let transfer_d_all (backends : Backend.t list) ~(table : string)
    (arg : Cursor.t) : Cursor.t =
  let schema = Cursor.schema arg in
  Cursor.make ~schema
    ~init:(fun () -> load_all backends ~table schema arg)
    ~next_batch:(fun () -> None)

(** `TRANSFER^D` to a single backend. *)
let transfer_d (backend : Backend.t) ~(table : string) (arg : Cursor.t) :
    Cursor.t =
  transfer_d_all [ backend ] ~table arg

(** Drop the temporary tables a query created ("the table must be dropped at
    the end of the query"). *)
let drop_temp_table (backend : Backend.t) (table : string) =
  if Backend.table_exists backend table then Backend.drop_table backend table
