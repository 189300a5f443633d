(** Hand-written SQL lexer.  Keywords are case-insensitive; identifiers
    (which may contain dots for qualification) keep their spelling. *)

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

val tokenize : string -> token list
(** Tokenize a statement; the result ends with {!EOF}.  Raises
    {!Lex_error} on malformed input (unterminated strings, stray
    characters). *)

val token_to_string : token -> string
