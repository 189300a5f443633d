(** Hand-written SQL lexer.  Produces a token list; the parser consumes it
    with one-token lookahead.  Keywords are case-insensitive; identifiers
    preserve their spelling. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string  (** uppercase keyword *)
  | SYM of string  (** punctuation / operator *)
  | PARAM of int  (** bind variable: [$n] carries n; a bare [?] carries 0 *)
  | EOF

exception Lex_error of string

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER";
    "ASC"; "DESC"; "AND"; "OR"; "NOT"; "AS"; "UNION"; "ALL"; "IS"; "NULL";
    "BETWEEN"; "IN"; "EXISTS"; "CREATE"; "TABLE"; "DROP"; "INSERT"; "INTO";
    "VALUES"; "DATE"; "TRUE"; "FALSE"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX";
    "GREATEST"; "LEAST";
    (* temporal-SQL extensions used by the TSQL front end *)
    "VALIDTIME"; "COALESCE"; "PERIOD"; "OVERLAPS"; "CONTAINS";
  ]

(* Keywords by their spelling in any case: hashing and equality fold
   ASCII case, so a lookup builds no uppercased copy, and a hit yields the
   keyword's own uppercase string. *)
module Caseless = Hashtbl.Make (struct
  type t = string

  let equal a b =
    let n = String.length a in
    n = String.length b
    &&
    let i = ref 0 in
    while !i < n && Char.uppercase_ascii a.[!i] = Char.uppercase_ascii b.[!i] do
      incr i
    done;
    !i = n

  let hash s =
    String.fold_left (fun h c -> (h * 31) + Char.code (Char.uppercase_ascii c)) 0 s
    land max_int
end)

let keyword_table =
  let t = Caseless.create 64 in
  List.iter (fun k -> Caseless.replace t k k) keywords;
  t

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(** Tokenize an SQL string. *)
let tokenize (s : string) : token list =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let rec go i =
    if i >= n then ()
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if c = '-' && i + 1 < n && s.[i + 1] = '-' then begin
        (* line comment *)
        let rec skip j = if j < n && s.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit s.[!j] do incr j done;
        if !j < n && s.[!j] = '.' && !j + 1 < n && is_digit s.[!j + 1] then begin
          incr j;
          while !j < n && is_digit s.[!j] do incr j done;
          emit (FLOAT (float_of_string (String.sub s i (!j - i))));
          go !j
        end
        else begin
          emit (INT (int_of_string (String.sub s i (!j - i))));
          go !j
        end
      end
      else if is_ident_start c then begin
        let j = ref i and dotted = ref false in
        while !j < n && is_ident_char s.[!j] do
          if s.[!j] = '.' then dotted := true;
          incr j
        done;
        let word = String.sub s i (!j - i) in
        (match if !dotted then None else Caseless.find_opt keyword_table word with
        | Some kw -> emit (KW kw)
        | None -> emit (IDENT word));
        go !j
      end
      else if c = '\'' then begin
        (* string literal with '' escaping *)
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then raise (Lex_error "unterminated string literal")
          else if s.[j] = '\'' then
            if j + 1 < n && s.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              str (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf s.[j];
            str (j + 1)
          end
        in
        let next = str (i + 1) in
        emit (STRING (Buffer.contents buf));
        go next
      end
      else if c = '?' then begin
        emit (PARAM 0);
        go (i + 1)
      end
      else if c = '$' then begin
        let j = ref (i + 1) in
        while !j < n && is_digit s.[!j] do incr j done;
        if !j = i + 1 then
          raise (Lex_error (Printf.sprintf "expected digits after $ at %d" i));
        emit (PARAM (int_of_string (String.sub s (i + 1) (!j - i - 1))));
        go !j
      end
      else begin
        let two = if i + 1 < n then String.sub s i 2 else "" in
        match two with
        | "<=" | ">=" | "<>" | "!=" ->
            emit (SYM (if two = "!=" then "<>" else two));
            go (i + 2)
        | _ -> (
            match c with
            | '(' | ')' | ',' | '*' | '+' | '-' | '/' | '=' | '<' | '>'
            | ';' ->
                emit (SYM (String.make 1 c));
                go (i + 1)
            | _ ->
                raise
                  (Lex_error (Printf.sprintf "unexpected character %C at %d" c i)))
      end
  in
  go 0;
  List.rev (EOF :: !toks)

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | KW k -> k
  | SYM s -> s
  | PARAM 0 -> "?"
  | PARAM n -> "$" ^ string_of_int n
  | EOF -> "<eof>"
