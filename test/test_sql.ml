(* Tests for the SQL lexer, parser, and printer. *)

open Tango_rel
open Tango_sql

let parse = Parser.query
let print = Printer.query_to_sql

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a, 1 + 2.5 FROM t WHERE x <= 'it''s'" in
  Alcotest.(check int) "token count" 13 (List.length toks);
  (match toks with
  | Lexer.KW "SELECT" :: Lexer.IDENT "a" :: _ -> ()
  | _ -> Alcotest.fail "unexpected token head");
  match List.filter (function Lexer.STRING _ -> true | _ -> false) toks with
  | [ Lexer.STRING s ] -> Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "string literal not lexed"

let test_lexer_comments_and_symbols () =
  let toks = Lexer.tokenize "x -- comment\n <> y" in
  Alcotest.(check int) "comment skipped" 4 (List.length toks);
  match toks with
  | [ Lexer.IDENT "x"; Lexer.SYM "<>"; Lexer.IDENT "y"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "symbols mis-lexed"

let test_parse_simple_select () =
  match parse "SELECT PosID, EmpName FROM POSITION WHERE PosID = 1" with
  | Ast.Select s ->
      Alcotest.(check int) "items" 2 (List.length s.items);
      Alcotest.(check int) "from" 1 (List.length s.from);
      Alcotest.(check bool) "where" true (s.where <> None)
  | _ -> Alcotest.fail "expected select"

let test_parse_qualified_and_alias () =
  match parse "SELECT A.PosID AS P FROM POSITION A, EMPLOYEE B" with
  | Ast.Select s -> (
      (match s.items with
      | [ Ast.Expr (Ast.Col (Some "A", "PosID"), Some "P") ] -> ()
      | _ -> Alcotest.fail "qualified column not parsed");
      match s.from with
      | [ Ast.Table ("POSITION", Some "A"); Ast.Table ("EMPLOYEE", Some "B") ] -> ()
      | _ -> Alcotest.fail "aliases not parsed")
  | _ -> Alcotest.fail "expected select"

let test_parse_precedence () =
  (* a = 1 OR b = 2 AND c = 3  parses as  a=1 OR (b=2 AND c=3) *)
  match parse "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3" with
  | Ast.Select { where = Some (Ast.Binop (Ast.Or, _, Ast.Binop (Ast.And, _, _))); _ } -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_arith_precedence () =
  match parse "SELECT 1 + 2 * 3 FROM t" with
  | Ast.Select { items = [ Ast.Expr (e, _) ]; _ } ->
      (match e with
      | Ast.Binop (Ast.Add, Ast.Lit (Value.Int 1), Ast.Binop (Ast.Mul, _, _)) -> ()
      | _ -> Alcotest.fail "mul should bind tighter")
  | _ -> Alcotest.fail "expected select"

let test_parse_date_literal () =
  match parse "SELECT * FROM t WHERE T1 < DATE '1997-02-08'" with
  | Ast.Select { where = Some (Ast.Binop (Ast.Lt, _, Ast.Lit (Value.Date d))); _ } ->
      Alcotest.(check string) "date value" "1997-02-08"
        (Tango_temporal.Chronon.to_string d)
  | _ -> Alcotest.fail "date literal not parsed"

let test_parse_group_order () =
  match
    parse
      "SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID HAVING \
       COUNT(*) > 1 ORDER BY PosID DESC, C"
  with
  | Ast.Select s ->
      Alcotest.(check int) "group by" 1 (List.length s.group_by);
      Alcotest.(check bool) "having" true (s.having <> None);
      (match s.order_by with
      | [ (_, false); (_, true) ] -> ()
      | _ -> Alcotest.fail "order directions wrong")
  | _ -> Alcotest.fail "expected select"

let test_parse_derived_and_subquery () =
  let sql =
    "SELECT g.PosID FROM (SELECT PosID, T1 AS T FROM POSITION UNION SELECT \
     PosID, T2 AS T FROM POSITION) g WHERE (SELECT MIN(p2.T) FROM POSITION \
     p2 WHERE p2.PosID = g.PosID) IS NOT NULL"
  in
  match parse sql with
  | Ast.Select s -> (
      (match s.from with
      | [ Ast.Derived (Ast.Union _, "g") ] -> ()
      | _ -> Alcotest.fail "derived union not parsed");
      match s.where with
      | Some (Ast.Is_not_null (Ast.Scalar_subquery _)) -> ()
      | _ -> Alcotest.fail "scalar subquery not parsed")
  | _ -> Alcotest.fail "expected select"

let test_parse_greatest_least () =
  match parse "SELECT GREATEST(A.T1, B.T1), LEAST(A.T2, B.T2) FROM t A, t B" with
  | Ast.Select { items = [ Ast.Expr (Ast.Greatest [ _; _ ], _);
                           Ast.Expr (Ast.Least [ _; _ ], _) ]; _ } -> ()
  | _ -> Alcotest.fail "greatest/least not parsed"

let test_parse_between_in_exists () =
  match
    parse
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (SELECT x FROM u) \
       AND EXISTS (SELECT * FROM v)"
  with
  | Ast.Select { where = Some w; _ } ->
      let cs = Ast.conjuncts w in
      Alcotest.(check int) "three conjuncts" 3 (List.length cs);
      Alcotest.(check bool) "between" true
        (List.exists (function Ast.Between _ -> true | _ -> false) cs);
      Alcotest.(check bool) "in" true
        (List.exists (function Ast.In_subquery _ -> true | _ -> false) cs);
      Alcotest.(check bool) "exists" true
        (List.exists (function Ast.Exists _ -> true | _ -> false) cs)
  | _ -> Alcotest.fail "expected select"

let test_parse_create_insert_drop () =
  (match Parser.statement "CREATE TABLE TMP (PosID INT, T1 DATE, Name VARCHAR(32))" with
  | Ast.Create_table ("TMP", cols) ->
      Alcotest.(check int) "columns" 3 (List.length cols);
      Alcotest.(check bool) "types" true
        (List.map (fun c -> c.Ast.col_type) cols
        = [ Value.TInt; Value.TDate; Value.TStr ])
  | _ -> Alcotest.fail "create not parsed");
  (match Parser.statement "INSERT INTO TMP VALUES (1, DATE '1995-01-01', 'x'), (2, NULL, 'y')" with
  | Ast.Insert ("TMP", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "insert not parsed");
  match Parser.statement "DROP TABLE TMP" with
  | Ast.Drop_table "TMP" -> ()
  | _ -> Alcotest.fail "drop not parsed"

let test_parse_errors () =
  let fails sql =
    match Parser.statement sql with
    | exception Parser.Parse_error _ -> true
    | exception Lexer.Lex_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing from" true (fails "SELECT a");
  Alcotest.(check bool) "trailing junk" true (fails "SELECT a FROM t extra junk ,");
  Alcotest.(check bool) "bad char" true (fails "SELECT @ FROM t");
  Alcotest.(check bool) "unterminated string" true (fails "SELECT 'abc FROM t")

(* Printer roundtrip: print → reparse → same AST. *)
let roundtrip sql =
  let q = parse sql in
  let q' = parse (print q) in
  Alcotest.(check bool) ("roundtrip: " ^ sql) true (q = q')

let test_printer_roundtrip () =
  List.iter roundtrip
    [
      "SELECT PosID, EmpName FROM POSITION WHERE PosID = 1 ORDER BY PosID";
      "SELECT A.PosID AS PosID, EmpName, GREATEST(A.T1, B.T1) AS T1, \
       LEAST(A.T2, B.T2) AS T2 FROM TMP A, POSITION B WHERE A.PosID = \
       B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 ORDER BY PosID";
      "SELECT PosID, T1, T2 FROM POSITION ORDER BY PosID, T1";
      "SELECT DISTINCT PosID FROM POSITION";
      "SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID HAVING \
       COUNT(*) > 1";
      "SELECT PosID, T1 AS T FROM POSITION UNION SELECT PosID, T2 AS T FROM \
       POSITION";
      "SELECT x FROM t WHERE a BETWEEN 1 AND 2 OR NOT b = 3";
      "SELECT SUM(PayRate), AVG(PayRate), MIN(T1), MAX(T2), COUNT(PosID) \
       FROM POSITION";
      "SELECT * FROM (SELECT PosID FROM POSITION) p WHERE PosID IS NOT NULL";
    ]

(* Random query ASTs must survive print -> parse unchanged. *)
let query_ast_gen =
  let open QCheck.Gen in
  let name_g = oneofl [ "A"; "B"; "T"; "Col1"; "x" ] in
  let lit_g =
    oneof
      [ map (fun i -> Ast.Lit (Value.Int i)) (int_range 0 99);
        map (fun d -> Ast.Lit (Value.Date d)) (int_range 0 9999);
        return (Ast.Lit (Value.Str "it's"));
        return (Ast.Lit Value.Null) ]
  in
  let rec expr_g depth =
    if depth <= 0 then
      oneof [ lit_g; map (fun c -> Ast.Col (None, c)) name_g ]
    else
      oneof
        [
          lit_g;
          map (fun c -> Ast.Col (Some "Q", c)) name_g;
          map3
            (fun op a b -> Ast.Binop (op, a, b))
            (oneofl Ast.[ Add; Sub; Mul; Eq; Lt; Ge; And; Or ])
            (expr_g (depth - 1)) (expr_g (depth - 1));
          map (fun a -> Ast.Not a) (expr_g (depth - 1));
          map (fun a -> Ast.Is_null a) (expr_g (depth - 1));
          map2 (fun a b -> Ast.Greatest [ a; b ]) (expr_g (depth - 1)) (expr_g (depth - 1));
        ]
  in
  let item_g =
    QCheck.Gen.map2
      (fun e a -> Ast.Expr (e, Some a))
      (expr_g 2) name_g
  in
  let* items = list_size (int_range 1 3) item_g in
  let* where = opt (expr_g 2) in
  let* order_col = name_g in
  let* asc = bool in
  let* distinct = bool in
  return
    (Ast.select ~distinct items
       [ Ast.Table ("T", Some "Q") ]
       ~where
       ~order_by:[ (Ast.Col (None, order_col), asc) ])

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"random ASTs: print then parse is identity" ~count:300
    (QCheck.make query_ast_gen ~print:Printer.query_to_sql)
    (fun q ->
      let q' = Parser.query (Printer.query_to_sql q) in
      q' = q)

let () =
  Alcotest.run "tango_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments/symbols" `Quick test_lexer_comments_and_symbols;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple select" `Quick test_parse_simple_select;
          Alcotest.test_case "qualified & alias" `Quick test_parse_qualified_and_alias;
          Alcotest.test_case "bool precedence" `Quick test_parse_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
          Alcotest.test_case "date literal" `Quick test_parse_date_literal;
          Alcotest.test_case "group/order" `Quick test_parse_group_order;
          Alcotest.test_case "derived & subquery" `Quick test_parse_derived_and_subquery;
          Alcotest.test_case "greatest/least" `Quick test_parse_greatest_least;
          Alcotest.test_case "between/in/exists" `Quick test_parse_between_in_exists;
          Alcotest.test_case "ddl & dml" `Quick test_parse_create_insert_drop;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "printer",
        [
          Alcotest.test_case "query roundtrips" `Quick test_printer_roundtrip;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] );
    ]
