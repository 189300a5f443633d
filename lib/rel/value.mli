(** Atomic values stored in tuples.

    Dates are represented as chronons — integer day numbers since
    1970-01-01 — which the relational layer does not interpret; calendar
    conversion lives in {!Tango_temporal.Chronon}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** chronon: day number *)

(** Data types for schema declarations. *)
type dtype = TBool | TInt | TFloat | TStr | TDate

val dtype_name : dtype -> string
(** SQL spelling of a type ([INT], [VARCHAR], …). *)

val dtype_of_name : string -> dtype
(** Inverse of {!dtype_name}; accepts common synonyms ([INTEGER],
    [TEXT], …).  Raises [Invalid_argument] on unknown names. *)

val type_of : t -> dtype
(** Type of a value.  Raises [Invalid_argument] on [Null]. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order over values.  [Null] sorts first; [Int] and [Float]
    compare numerically with each other; values of unrelated types compare
    by a fixed type rank. *)

val equal : t -> t -> bool

val to_float : t -> float
(** Numeric view: dates yield their chronon, booleans 0/1.  Raises
    [Invalid_argument] on strings and [Null]. *)

val to_int : t -> int
(** Like {!to_float} but truncating. *)

val byte_size : t -> int
(** Bytes this value contributes to [size(r)] statistics: 8 for numerics
    and dates, 1 for booleans/null, length+4 for strings. *)

(** {1 Arithmetic}

    SQL semantics: [Null] operands propagate; division by zero yields
    [Null]; [Date + Int] and [Date - Int] shift dates, [Date - Date] is a
    day count. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val greatest : t -> t -> t
(** SQL [GREATEST]: [Null] if either argument is [Null]. *)

val least : t -> t -> t
(** SQL [LEAST]: [Null] if either argument is [Null]. *)

val set_date_printer : (int -> string) -> unit
(** Override how [Date] values render (default: [#<day number>]).
    {!Tango_temporal.Chronon} installs an ISO printer when linked. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Binary serialization}

    Used by storage pages and the middleware⇄DBMS transfer boundary, where
    marshalling is deliberately real work. *)

val serialize : Buffer.t -> t -> unit

type reader = { src : string; mutable pos : int }
(** A read position in a serialized byte string. *)

val reader : string -> int -> reader
(** [reader s pos] reads [s] from [pos]. *)

val read : reader -> t
(** Parse the value at the reader's position and advance past it. *)

val skip : reader -> unit
(** Advance past the value at the reader's position without building it
    (reads only its tag and, for strings, its length). *)
