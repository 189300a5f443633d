(* adhoc_mix: a seeded stream of structurally distinct temporal queries
   over a tiny database.  Three shapes — a POSITION self-join with a
   varying projection and predicate subset, a Query-2-like GROUP BY
   subquery with a varying aggregate and inner WHERE joined back, and a
   POSITION-EMPLOYEE join — whose variants far outnumber the 128 plan
   cache entries, so almost every query misses: parse, compile, the
   Volcano search, translation and plan building carry the latency, and
   data volume is negligible.  Variants differ in structure, not in
   literals (auto-parameterization folds those) or alias names. *)

open Tango_core

let scale = 0.002 (* POSITION 167 tuples, EMPLOYEE 99 *)

(* The members of [xs] selected by the bits of a seeded mask. *)
let subset st xs =
  let mask = Random.State.bits st in
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) xs

let nonempty st xs = match subset st xs with [] -> [ List.hd xs ] | s -> s
let lit st = string_of_int (5 + Random.State.int st 25)
let dat st = Common.date st ~lo_year:1985 ~hi_year:2001

let where = function [] -> "" | ps -> " AND " ^ String.concat " AND " ps
let order_by st = if Random.State.bool st then " ORDER BY PosID" else ""

let self_join st =
  let items =
    nonempty st
      [ "A.EmpName AS E1"; "B.EmpName AS E2"; "A.Dept AS D1"; "B.Dept AS D2";
        "A.PayRate AS R1"; "B.Status AS S2" ]
  in
  let preds =
    subset st
      [ "A.EmpID < B.EmpID"; "A.PayRate > " ^ lit st; "B.T1 < DATE '" ^ dat st ^ "'";
        "A.Dept = 'CS'"; "B.PayRate < " ^ lit st ]
  in
  Printf.sprintf
    "VALIDTIME SELECT A.PosID AS PosID, %s FROM POSITION A, POSITION B WHERE \
     A.PosID = B.PosID%s%s"
    (String.concat ", " items) (where preds) (order_by st)

let group_join st =
  let agg =
    Common.pick st
      [ "COUNT(*)"; "MAX(PayRate)"; "MIN(PayRate)"; "MAX(EmpID)"; "MIN(EmpID)" ]
  in
  let inner =
    match
      subset st
        [ "PayRate > " ^ lit st; "T1 < DATE '" ^ dat st ^ "'"; "Status = 'FT'" ]
    with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let items = nonempty st [ "B.EmpName AS EmpName"; "B.Dept AS Dept"; "B.Status AS Status" ] in
  let outer = subset st [ "B.PayRate > " ^ lit st; "B.T2 > DATE '" ^ dat st ^ "'" ] in
  Printf.sprintf
    "VALIDTIME SELECT A.PosID AS PosID, %s, A.V AS V FROM (VALIDTIME SELECT \
     PosID, %s AS V FROM POSITION%s GROUP BY PosID) A, POSITION B WHERE \
     A.PosID = B.PosID%s%s"
    (String.concat ", " items) agg inner (where outer) (order_by st)

let employee_join st =
  let items =
    nonempty st
      [ "E.Name AS Name"; "E.Address AS Address"; "E.City AS City";
        "E.Dept AS EDept"; "E.Salary AS Salary"; "P.PayRate AS PayRate" ]
  in
  let preds =
    subset st [ "P.PayRate > " ^ lit st; "E.Grade < " ^ lit st; "P.Dept = 'MATH'" ]
  in
  Printf.sprintf
    "SELECT P.PosID AS PosID, %s FROM POSITION P, EMPLOYEE E WHERE P.EmpID = \
     E.EmpID%s%s"
    (String.concat ", " items) (where preds) (order_by st)

(* 40% self-joins, 30% group joins, 30% employee joins *)
let stream ~seed =
  let st = Common.rng ~seed ~salt:4 in
  let shape =
    Common.deck st
      (Common.repeat 4 ("self_join", self_join)
      @ Common.repeat 3 ("group_join", group_join)
      @ Common.repeat 3 ("employee_join", employee_join))
  in
  fun () ->
    let cls, make = shape () in
    Inproc.Read (cls, { Replay.sql = make st; params = [] })

(* Share of queries checked against the reference evaluator. *)
let check_share = 0.25

let run (params : Common.params) =
  let setup () =
    let db, mw = Inproc.session ~scale in
    (* warm: one query per shape collects the base statistics *)
    let st = Common.rng ~seed:0 ~salt:4 in
    List.iter
      (fun shape -> ignore (Middleware.query mw (shape st)))
      [ self_join; group_join; employee_join ];
    (db, mw)
  in
  let prepare (db, mw) =
    let oracle =
      let lookup = Middleware.schema_lookup mw in
      let base name =
        let r = Tango_dbms.Database.query db ("SELECT * FROM " ^ name) in
        Tango_rel.Relation.make
          (Tango_rel.Schema.unqualify (Tango_rel.Relation.schema r))
          (Tango_rel.Relation.tuples r)
      in
      let tables = lazy [ ("POSITION", base "POSITION"); ("EMPLOYEE", base "EMPLOYEE") ] in
      Common.checker (fun (sql, fp) ->
          let expected =
            Tango_algebra.Reference.eval
              (fun name -> List.assoc name (Lazy.force tables))
              (Tango_tsql.Compile.compile ~lookup sql)
          in
          Common.fingerprint expected = fp)
    in
    let sample = Common.rng ~seed:params.Common.seed ~salt:5 in
    {
      Inproc.mw;
      next_op = stream ~seed:params.Common.seed;
      check =
        (fun _ op report ->
          match op with
          | Inproc.Read (_, r) ->
              let sql = r.Replay.sql and result = report.Middleware.result in
              (not (params.Common.smoke || Random.State.float sample 1.0 < check_share))
              || Common.sorted_on (Tango_tsql.Compile.required_order sql) result
                 && Common.ask oracle (sql, Common.fingerprint result)
          | Inproc.Write _ -> false);
      on_write = ignore;
      stop = (fun () -> Common.stop_checker oracle);
    }
  in
  Inproc.run params ~setup ~prepare
