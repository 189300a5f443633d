(** Render SQL ASTs back to text — how the middleware ships SQL strings to
    the DBMS (as TANGO shipped them over JDBC). *)

val binop_name : Ast.binop -> string
val expr_to_sql : Ast.expr -> string
val query_to_sql : Ast.query -> string
