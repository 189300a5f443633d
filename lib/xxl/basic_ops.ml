(** The middleware algorithms `FILTER^M` and `PROJECT^M`.

    Both are order-preserving, as the paper requires of middleware
    algorithms (Section 4): one input batch yields (at most) one output
    batch with no per-tuple closure calls on the pipeline below. *)

open Tango_rel
open Tango_sql
open Tango_algebra

let rec next_kept p (c : Cursor.t) =
  match Cursor.next_batch c with
  | None -> None
  | Some b -> (
      match Relation.filter_tuples p b with
      | [||] -> next_kept p c
      | kept -> Some kept)

(** `FILTER^M`: selection in the middleware (paper Section 3.3). *)
let filter (pred : Ast.expr) (arg : Cursor.t) : Cursor.t =
  let schema = Cursor.schema arg in
  let p = Scalar.compile_pred schema pred in
  Cursor.make ~schema
    ~init:(fun () -> Cursor.init arg)
    ~next_batch:(fun () -> next_kept p arg)

(** `PROJECT^M`: generalized projection (expressions with output names). *)
let project (items : (Ast.expr * string) list) (arg : Cursor.t) : Cursor.t =
  let in_schema = Cursor.schema arg in
  let out_schema =
    Schema.make
      (List.map (fun (e, n) -> (n, Scalar.dtype in_schema e)) items)
  in
  let fns = Array.of_list (List.map (fun (e, _) -> Scalar.compile in_schema e) items) in
  let eval t = Array.map (fun f -> f t) fns in
  Cursor.make ~schema:out_schema
    ~init:(fun () -> Cursor.init arg)
    ~next_batch:(fun () ->
      match Cursor.next_batch arg with
      | None -> None
      | Some b -> Some (Array.map eval b))

(** Projection onto named attributes. *)
let project_attrs names (arg : Cursor.t) : Cursor.t =
  project
    (List.map (fun n -> (Ast.Col (None, n), Schema.base_name n)) names)
    arg
