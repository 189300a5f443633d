(** Render SQL ASTs back to text.  Used by the Translator-To-SQL (the
    middleware ships SQL strings to the DBMS, as TANGO ships them over JDBC)
    and by error messages. *)

open Tango_rel

let binop_name = function
  | Ast.Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"

let value_to_sql = function
  | Value.Null -> "NULL"
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f
  | Value.Str s ->
      "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Value.Date d -> "DATE '" ^ Tango_temporal.Chronon.to_string d ^ "'"

(* Precedence levels mirroring the parser, loosest first:
   0 OR, 1 AND, 2 NOT, 3 comparison/IS/BETWEEN/IN, 4 additive,
   5 multiplicative, 6 primary.  Operands are parenthesized when their own
   level is below what their position requires, so printing then parsing is
   the identity on arbitrary ASTs (property-tested). *)
let precedence (e : Ast.expr) =
  match e with
  | Ast.Binop (Or, _, _) -> 0
  | Ast.Binop (And, _, _) -> 1
  | Ast.Not _ -> 2
  | Ast.Binop ((Eq | Neq | Lt | Le | Gt | Ge), _, _)
  | Ast.Is_null _ | Ast.Is_not_null _ | Ast.Between _ | Ast.In_subquery _ -> 3
  | Ast.Binop ((Add | Sub), _, _) -> 4
  | Ast.Binop ((Mul | Div), _, _) -> 5
  | Ast.Lit _ | Ast.Param _ | Ast.Col _ | Ast.Greatest _ | Ast.Least _
  | Ast.Agg _ | Ast.Scalar_subquery _ | Ast.Exists _ -> 6

let rec expr_to_sql (e : Ast.expr) =
  (* [at level sub]: render [sub] as an operand requiring at least
     [level]. *)
  let at level sub =
    let s = expr_to_sql sub in
    if precedence sub < level then "(" ^ s ^ ")" else s
  in
  match e with
  | Lit v -> value_to_sql v
  | Param n -> "$" ^ string_of_int n
  | Col (None, c) -> c
  | Col (Some q, c) -> q ^ "." ^ c
  | Binop (Or, a, b) ->
      (* the parser right-nests OR/AND chains; the left operand prints one
         level tighter so left-nested trees round-trip *)
      Printf.sprintf "%s OR %s" (at 1 a) (at 0 b)
  | Binop (And, a, b) -> Printf.sprintf "%s AND %s" (at 2 a) (at 1 b)
  | Binop (((Add | Sub) as op), a, b) ->
      (* additive/multiplicative chains are left-associative in the parser *)
      Printf.sprintf "%s %s %s" (at 4 a) (binop_name op) (at 5 b)
  | Binop (((Mul | Div) as op), a, b) ->
      Printf.sprintf "%s %s %s" (at 5 a) (binop_name op) (at 6 b)
  | Binop (op, a, b) ->
      (* comparisons do not chain: both operands at additive level *)
      Printf.sprintf "%s %s %s" (at 4 a) (binop_name op) (at 4 b)
  | Not e -> "NOT " ^ at 2 e
  | Is_null e -> at 4 e ^ " IS NULL"
  | Is_not_null e -> at 4 e ^ " IS NOT NULL"
  | Between (e, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (at 4 e) (at 4 lo) (at 4 hi)
  | Greatest es ->
      "GREATEST(" ^ String.concat ", " (List.map expr_to_sql es) ^ ")"
  | Least es -> "LEAST(" ^ String.concat ", " (List.map expr_to_sql es) ^ ")"
  | Agg (Count_star, _) -> "COUNT(*)"
  | Agg (f, Some e) -> Ast.aggfun_name f ^ "(" ^ expr_to_sql e ^ ")"
  | Agg (f, None) -> Ast.aggfun_name f ^ "(*)"
  | Scalar_subquery q -> "(" ^ query_to_sql q ^ ")"
  | In_subquery (e, q) -> at 4 e ^ " IN (" ^ query_to_sql q ^ ")"
  | Exists q -> "EXISTS (" ^ query_to_sql q ^ ")"

and item_to_sql = function
  | Ast.Star -> "*"
  | Ast.Expr (e, None) -> expr_to_sql e
  | Ast.Expr (e, Some a) -> expr_to_sql e ^ " AS " ^ a

and table_ref_to_sql = function
  | Ast.Table (n, None) -> n
  | Ast.Table (n, Some a) -> n ^ " " ^ a
  | Ast.Derived (q, a) -> "(" ^ query_to_sql q ^ ") " ^ a

and query_to_sql = function
  | Ast.Union (a, b) -> query_to_sql a ^ " UNION " ^ query_to_sql b
  | Ast.Union_all (a, b) -> query_to_sql a ^ " UNION ALL " ^ query_to_sql b
  | Ast.Select s ->
      let buf = Buffer.create 128 in
      if s.validtime then Buffer.add_string buf "VALIDTIME ";
      if s.coalesce then Buffer.add_string buf "COALESCE ";
      Buffer.add_string buf "SELECT ";
      if s.distinct then Buffer.add_string buf "DISTINCT ";
      Buffer.add_string buf
        (String.concat ", " (List.map item_to_sql s.items));
      Buffer.add_string buf " FROM ";
      Buffer.add_string buf
        (String.concat ", " (List.map table_ref_to_sql s.from));
      (match s.where with
      | None -> ()
      | Some w -> Buffer.add_string buf (" WHERE " ^ expr_to_sql w));
      (match s.group_by with
      | [] -> ()
      | gs ->
          Buffer.add_string buf
            (" GROUP BY " ^ String.concat ", " (List.map expr_to_sql gs)));
      (match s.having with
      | None -> ()
      | Some h -> Buffer.add_string buf (" HAVING " ^ expr_to_sql h));
      (match s.order_by with
      | [] -> ()
      | os ->
          Buffer.add_string buf
            (" ORDER BY "
            ^ String.concat ", "
                (List.map
                   (fun (e, asc) ->
                     expr_to_sql e ^ if asc then "" else " DESC")
                   os)));
      Buffer.contents buf
