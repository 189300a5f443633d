(** Scalar expressions of the middleware algebra.

    The algebra reuses the SQL expression AST ({!Tango_sql.Ast.expr}) for
    predicates and projection functions, which makes the Translator-To-SQL a
    plain embedding.  Middleware-side evaluation is provided here;
    subqueries and aggregates are not valid in this position and raise. *)

open Tango_rel
open Tango_sql

exception Unsupported of string

let unsupported what = raise (Unsupported what)

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> true

(* SQL comparison semantics: NULL operands compare to false. *)
let compare_op op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    Value.Bool
      (match op with
      | Ast.Eq -> c = 0
      | Ast.Neq -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | Ast.And | Ast.Or | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
          invalid_arg "Scalar.compare_op")

(** [compile schema e]: resolve all columns of [e] against [schema] and
    return an evaluator over tuples of that schema. *)
let rec compile (schema : Schema.t) (e : Ast.expr) : Tuple.t -> Value.t =
  let recur = compile schema in
  match e with
  | Ast.Lit v -> fun _ -> v
  | Ast.Param n ->
      (* templates are instantiated (Param -> Lit) before any evaluator
         is built; reaching one here means a missing bind *)
      unsupported (Printf.sprintf "unbound parameter $%d" n)
  | Ast.Col (q, c) -> (
      let name = match q with None -> c | Some q -> q ^ "." ^ c in
      match Schema.index_opt schema name with
      | Some i -> fun t -> t.(i)
      | None -> unsupported ("unknown column " ^ name))
  | Ast.Binop (Ast.And, a, b) ->
      let fa = recur a and fb = recur b in
      fun t -> Value.Bool (truthy (fa t) && truthy (fb t))
  | Ast.Binop (Ast.Or, a, b) ->
      let fa = recur a and fb = recur b in
      fun t -> Value.Bool (truthy (fa t) || truthy (fb t))
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) ->
      let fa = recur a and fb = recur b in
      let f =
        match op with
        | Ast.Add -> Value.add
        | Ast.Sub -> Value.sub
        | Ast.Mul -> Value.mul
        | Ast.Div -> Value.div
        | _ -> assert false
      in
      fun t -> f (fa t) (fb t)
  | Ast.Binop (op, a, b) ->
      let fa = recur a and fb = recur b in
      fun t -> compare_op op (fa t) (fb t)
  | Ast.Not a ->
      let fa = recur a in
      fun t -> Value.Bool (not (truthy (fa t)))
  | Ast.Is_null a ->
      let fa = recur a in
      fun t -> Value.Bool (Value.is_null (fa t))
  | Ast.Is_not_null a ->
      let fa = recur a in
      fun t -> Value.Bool (not (Value.is_null (fa t)))
  | Ast.Between (a, lo, hi) ->
      let fa = recur a and flo = recur lo and fhi = recur hi in
      fun t ->
        let v = fa t in
        Value.Bool
          (truthy (compare_op Ast.Ge v (flo t))
          && truthy (compare_op Ast.Le v (fhi t)))
  | Ast.Greatest (x :: xs) ->
      let fx = recur x and fxs = List.map recur xs in
      fun t -> List.fold_left (fun acc f -> Value.greatest acc (f t)) (fx t) fxs
  | Ast.Least (x :: xs) ->
      let fx = recur x and fxs = List.map recur xs in
      fun t -> List.fold_left (fun acc f -> Value.least acc (f t)) (fx t) fxs
  | Ast.Greatest [] | Ast.Least [] -> unsupported "empty GREATEST/LEAST"
  | Ast.Agg _ -> unsupported "aggregate in scalar position"
  | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ ->
      unsupported "subquery in middleware expression"

(** Predicate view. *)
let compile_pred schema e =
  let f = compile schema e in
  fun t -> truthy (f t)

(** Attributes referenced by an expression, as resolved base names. *)
let attrs (e : Ast.expr) : string list =
  List.sort_uniq String.compare
    (List.map
       (fun (q, c) -> match q with None -> c | Some q -> q ^ "." ^ c)
       (Ast.columns e))

(** Do all attribute references of [e] resolve in [schema]? *)
let covers (schema : Schema.t) (e : Ast.expr) =
  List.for_all (fun a -> Schema.mem schema a) (attrs e)

(** Static type of a middleware expression under [schema]. *)
let rec dtype (schema : Schema.t) (e : Ast.expr) : Value.dtype =
  match e with
  | Ast.Lit Value.Null -> Value.TInt
  | Ast.Lit v -> Value.type_of v
  | Ast.Param _ ->
      (* like [Lit Null]: the value is unknown while planning a
         template, and comparisons type TBool without consulting it *)
      Value.TInt
  | Ast.Col (q, c) ->
      let name = match q with None -> c | Some q -> q ^ "." ^ c in
      Schema.dtype_of schema name
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b) -> (
      match (op, dtype schema a, dtype schema b) with
      | _, Value.TFloat, _ | _, _, Value.TFloat | Ast.Div, _, _ -> Value.TFloat
      | Ast.Add, Value.TDate, Value.TInt | Ast.Add, Value.TInt, Value.TDate ->
          Value.TDate
      | Ast.Sub, Value.TDate, Value.TInt -> Value.TDate
      | Ast.Sub, Value.TDate, Value.TDate -> Value.TInt
      | _ -> Value.TInt)
  | Ast.Binop _ | Ast.Not _ | Ast.Is_null _ | Ast.Is_not_null _
  | Ast.Between _ ->
      Value.TBool
  | Ast.Greatest (x :: _) | Ast.Least (x :: _) -> dtype schema x
  | Ast.Greatest [] | Ast.Least [] -> unsupported "empty GREATEST/LEAST"
  | Ast.Agg _ | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ ->
      unsupported "non-scalar expression"

(** Substitute column references via [f] (used when renaming through
    projections). *)
let rec map_cols f (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Lit _ | Ast.Param _ -> e
  | Ast.Col (q, c) -> f q c
  | Ast.Binop (op, a, b) -> Ast.Binop (op, map_cols f a, map_cols f b)
  | Ast.Not a -> Ast.Not (map_cols f a)
  | Ast.Is_null a -> Ast.Is_null (map_cols f a)
  | Ast.Is_not_null a -> Ast.Is_not_null (map_cols f a)
  | Ast.Between (a, b, c) ->
      Ast.Between (map_cols f a, map_cols f b, map_cols f c)
  | Ast.Greatest es -> Ast.Greatest (List.map (map_cols f) es)
  | Ast.Least es -> Ast.Least (List.map (map_cols f) es)
  | Ast.Agg (fn, a) -> Ast.Agg (fn, Option.map (map_cols f) a)
  | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ ->
      unsupported "subquery in middleware expression"

let to_string = Printer.expr_to_sql
