(* Seeded ad hoc query generator shared by the optimizer corpora
   (test_memo_golden, test_plan_schemas): three structural shapes —
   a temporal self-join, a temporal join with a grouped temporal
   aggregate, and a regular join with EMPLOYEE — each with seeded
   projection lists, predicates and ORDER BY.  A corpus is pinned by its
   seed, so changing any draw here changes every corpus built from it. *)

(* The members of [xs] selected by the bits of a seeded mask. *)
let subset st xs =
  let mask = Random.State.bits st in
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) xs

let nonempty st xs = match subset st xs with [] -> [ List.hd xs ] | s -> s
let lit st = string_of_int (5 + Random.State.int st 25)
let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let date st =
  let lo = Tango_temporal.Chronon.of_ymd ~y:1985 ~m:1 ~d:1 in
  let hi = Tango_temporal.Chronon.of_ymd ~y:2001 ~m:1 ~d:1 in
  Tango_temporal.Chronon.to_string (lo + Random.State.int st (hi - lo))

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
      [ "A.EmpID < B.EmpID"; "A.PayRate > " ^ lit st;
        "B.T1 < DATE '" ^ date st ^ "'"; "A.Dept = 'CS'"; "B.PayRate < " ^ lit st ]
  in
  Printf.sprintf
    "VALIDTIME SELECT A.PosID AS PosID, %s FROM POSITION A, POSITION B WHERE \
     A.PosID = B.PosID%s%s"
    (String.concat ", " items) (where preds) (order_by st)

let group_join st =
  let agg =
    pick st [ "COUNT(*)"; "MAX(PayRate)"; "MIN(PayRate)"; "MAX(EmpID)"; "MIN(EmpID)" ]
  in
  let inner =
    match
      subset st
        [ "PayRate > " ^ lit st; "T1 < DATE '" ^ date st ^ "'"; "Status = 'FT'" ]
    with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let items =
    nonempty st [ "B.EmpName AS EmpName"; "B.Dept AS Dept"; "B.Status AS Status" ]
  in
  let outer = subset st [ "B.PayRate > " ^ lit st; "B.T2 > DATE '" ^ date st ^ "'" ] in
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

let shapes = [| self_join; group_join; employee_join |]

(* [n] queries named adhoc000, adhoc001, ..., the shapes in rotation,
   drawn from one stream seeded with [seed]. *)
let seeded ~seed n =
  let st = Random.State.make [| seed |] in
  List.init n (fun i -> (Printf.sprintf "adhoc%03d" i, shapes.(i mod 3) st))
