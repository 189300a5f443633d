(* oltp_mixed: literal-varying reads mixed with writes.  Reads are 80% a
   hot PayRate range selection with fresh literals (a third of them
   through [Middleware.query_params], the rest raw text the session
   auto-parameterizes), 15% Query 2 with a seeded period end and 5%
   Query 3 with a seeded start bound; every 100th op inserts a new
   POSITION version, re-ANALYZEs and refreshes the session's statistics.
   The per-query fixed costs (lexing, parameterization, template lookup,
   instantiation, bookkeeping) dominate the reads; the writes exercise
   invalidation, statistics re-collection and re-optimization.

   A write inserts one row, not ten: a run's op count follows the
   machine's speed, and ten rows per write grew POSITION by 70% over a
   25-second run, so a faster system would have seen more data, a larger
   heap and slower reads. *)

open Tango_rel
open Tango_core
module Queries = Tango_workload.Queries

let scale = 0.01 (* POSITION 838 tuples, EMPLOYEE 499 *)

let hot_sql lo hi =
  Printf.sprintf
    "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > %d AND \
     PayRate < %d"
    lo hi

let hot_template =
  "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > $1 AND \
   PayRate < $2"

(* The literal text of a read, for the all-DBMS check. *)
let literal_sql (r : Replay.read) =
  match r.Replay.params with
  | [] -> r.Replay.sql
  | [ Value.Int lo; Value.Int hi ] -> hot_sql lo hi
  | _ -> invalid_arg "oltp_mixed: unexpected binding"

let names = [ "Ada Byron"; "Alan Turing"; "Grace Hopper"; "Edgar Codd"; "Jim Gray" ]
let departments = [ "CS"; "MATH"; "PHYS"; "ECON" ]
let statuses = [ "FT"; "PT"; "TEMP" ]

(* A new version of an existing position. *)
let insert_sql st ~positions ~employees =
  let t1 = Common.date st ~lo_year:1995 ~hi_year:2001 in
  let t2 =
    Tango_temporal.Chronon.to_string
      (Tango_temporal.Chronon.of_string t1 + 30 + Random.State.int st 1000)
  in
  Printf.sprintf
    "INSERT INTO POSITION VALUES (%d, %d, '%s', '%s', %d.%02d, '%s', DATE '%s', \
     DATE '%s')"
    (1 + Random.State.int st positions)
    (1 + Random.State.int st employees)
    (Common.pick st names) (Common.pick st departments)
    (5 + Random.State.int st 25)
    (Random.State.int st 100) (Common.pick st statuses) t1 t2

let stream ~seed ~positions ~employees =
  let st = Common.rng ~seed ~salt:2 in
  let read = Common.deck st (Common.repeat 16 `Hot @ Common.repeat 3 `Q2 @ [ `Q3 ]) in
  let bind = Common.deck st [ true; false; false ] in
  let period_end = Common.dates st ~lo_year:1985 ~hi_year:2001 in
  let start_bound = Common.dates st ~lo_year:1985 ~hi_year:2001 in
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod 100 = 0 then Inproc.Write (insert_sql st ~positions ~employees)
    else
      match read () with
      | `Hot ->
          let lo = 5 + Random.State.int st 20 in
          let hi = lo + 1 + Random.State.int st 10 in
          if bind () then
            Inproc.Read
              ("hot", { Replay.sql = hot_template; params = [ Value.Int lo; Value.Int hi ] })
          else Inproc.Read ("hot", { Replay.sql = hot_sql lo hi; params = [] })
      | `Q2 ->
          Inproc.Read
            ("q2", { Replay.sql = Queries.q2_sql ~period_end:(period_end ()); params = [] })
      | `Q3 ->
          Inproc.Read
            ("q3", { Replay.sql = Queries.q3_sql ~start_bound:(start_bound ()); params = [] })

(* Share of reads checked against the all-DBMS plan, besides every first
   read after a write. *)
let check_share = 0.10

let run (params : Common.params) =
  let scale = if params.Common.smoke then Common.smoke_scale else scale in
  let setup () =
    let db, mw = Inproc.session ~scale in
    (* warm: one of each read shape fills the plan cache *)
    List.iter
      (fun sql -> ignore (Middleware.query mw sql))
      [ hot_sql 10 20; Queries.q2_sql ~period_end:"1996-01-01";
        Queries.q3_sql ~start_bound:"1996-01-01" ];
    ignore (Middleware.query_params mw hot_template [ Value.Int 10; Value.Int 20 ]);
    (db, mw)
  in
  let prepare (db, mw) =
    (* the oracle's copy of the data, kept in step with every write *)
    let oracle =
      let session = Middleware.connect ~roundtrip_spin:0 db in
      Common.checker (function
        | `Insert sql ->
            ignore (Tango_dbms.Database.execute db sql);
            true
        | `Read (sql, fp) -> Common.fingerprint (Common.all_dbms session sql) = fp)
    in
    let sample = Common.rng ~seed:params.Common.seed ~salt:3 in
    let after_write = ref false in
    let positions = max 4 (Tango_dbms.Database.table_cardinality db "POSITION" / 40) in
    let employees = Tango_dbms.Database.table_cardinality db "EMPLOYEE" in
    {
      Inproc.mw;
      next_op = stream ~seed:params.Common.seed ~positions ~employees;
      check =
        (fun _ op report ->
          match op with
          | Inproc.Read (_, r) ->
              let forced = !after_write in
              after_write := false;
              let sql = literal_sql r in
              let result = report.Middleware.result in
              (not
                 (params.Common.smoke || forced
                 || Random.State.float sample 1.0 < check_share))
              || Common.sorted_on (Tango_tsql.Compile.required_order sql) result
                 && Common.ask oracle (`Read (sql, Common.fingerprint result))
          | Inproc.Write _ -> false);
      on_write =
        (fun sql ->
          after_write := true;
          ignore (Common.ask oracle (`Insert sql)));
      stop = (fun () -> Common.stop_checker oracle);
    }
  in
  Inproc.run params ~setup ~prepare
