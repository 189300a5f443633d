(** Atomic values stored in tuples.

    Dates are represented as chronons: integer day numbers (days since
    1970-01-01, negative before).  The relational layer does not interpret
    them; conversion to and from calendar dates lives in
    {!Tango_temporal.Chronon}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** chronon: day number *)

(** Data types for schema declarations. *)
type dtype = TBool | TInt | TFloat | TStr | TDate

let dtype_name = function
  | TBool -> "BOOL"
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TStr -> "VARCHAR"
  | TDate -> "DATE"

let dtype_of_name s =
  match String.uppercase_ascii s with
  | "BOOL" | "BOOLEAN" -> TBool
  | "INT" | "INTEGER" | "NUMBER" -> TInt
  | "FLOAT" | "REAL" | "DOUBLE" -> TFloat
  | "VARCHAR" | "STRING" | "CHAR" | "TEXT" -> TStr
  | "DATE" -> TDate
  | other -> invalid_arg ("Value.dtype_of_name: unknown type " ^ other)

(** Type of a value; [Null] has no type and raises. *)
let type_of = function
  | Null -> invalid_arg "Value.type_of: Null"
  | Bool _ -> TBool
  | Int _ -> TInt
  | Float _ -> TFloat
  | Str _ -> TStr
  | Date _ -> TDate

let is_null = function Null -> true | _ -> false

(* Rank used to give a deterministic order across types; Null sorts first,
   as in most DBMS ascending NULLS FIRST conventions. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numerics compare with each other *)
  | Date _ -> 3
  | Str _ -> 4

(** Total order over values.  Numeric values ([Int], [Float]) compare by
    numeric value regardless of representation. *)
let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  (* dates are numeric chronons: integer literals compare with them
     numerically, as in the SQL subset (DATE columns accept INT values) *)
  | Date x, Int y -> Int.compare x y
  | Int x, Date y -> Int.compare x y
  | Date x, Float y -> Float.compare (float_of_int x) y
  | Float x, Date y -> Float.compare x (float_of_int y)
  | a, b -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(** Numeric view used by arithmetic and statistics.  Dates are numeric (their
    chronon), booleans are 0/1.  Raises [Invalid_argument] on strings/null. *)
let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Date d -> float_of_int d
  | Bool b -> if b then 1.0 else 0.0
  | Null -> invalid_arg "Value.to_float: Null"
  | Str s -> invalid_arg ("Value.to_float: string " ^ s)

let to_int = function
  | Int i -> i
  | Date d -> d
  | Bool b -> if b then 1 else 0
  | Float f -> int_of_float f
  | Null -> invalid_arg "Value.to_int: Null"
  | Str s -> invalid_arg ("Value.to_int: string " ^ s)

(** Size in bytes used for [size(r)] statistics: fixed 8 bytes for numerics
    and dates, 1 for booleans and nulls, length+4 for strings (length
    prefix). *)
let byte_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ | Float _ | Date _ -> 8
  | Str s -> String.length s + 4

let add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | Date x, Int y | Int y, Date x -> Date (x + y)
  | (Float _ | Int _), (Float _ | Int _) -> Float (to_float a +. to_float b)
  | Null, _ | _, Null -> Null
  | _ -> invalid_arg "Value.add"

let sub a b =
  match (a, b) with
  | Int x, Int y -> Int (x - y)
  | Date x, Int y -> Date (x - y)
  | Date x, Date y -> Int (x - y)
  | (Float _ | Int _), (Float _ | Int _) -> Float (to_float a -. to_float b)
  | Null, _ | _, Null -> Null
  | _ -> invalid_arg "Value.sub"

let mul a b =
  match (a, b) with
  | Int x, Int y -> Int (x * y)
  | (Float _ | Int _), (Float _ | Int _) -> Float (to_float a *. to_float b)
  | Null, _ | _, Null -> Null
  | _ -> invalid_arg "Value.mul"

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | (Float _ | Int _ | Date _), (Float _ | Int _) ->
      let d = to_float b in
      if d = 0.0 then Null else Float (to_float a /. d)
  | _ -> invalid_arg "Value.div"

(** GREATEST / LEAST with SQL semantics: NULL if any argument is NULL. *)
let greatest a b =
  if is_null a || is_null b then Null else if compare a b >= 0 then a else b

let least a b =
  if is_null a || is_null b then Null else if compare a b <= 0 then a else b

(* How [Date] values render.  The relational layer cannot depend on the
   calendar; {!Tango_temporal.Chronon} installs an ISO printer when it is
   linked, so dates print as 1997-02-01 instead of raw day numbers. *)
let date_printer : (int -> string) ref = ref (fun d -> "#" ^ string_of_int d)

let set_date_printer f = date_printer := f

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.pf ppf "'%s'" s
  | Date d -> Fmt.string ppf (!date_printer d)

let to_string v = Fmt.str "%a" pp v

(* --- binary (de)serialization, used by the storage and transfer layers to
   make boundary crossings cost real marshalling work --- *)

let write_int64 buf (i : int) =
  Buffer.add_int64_le buf (Int64.of_int i)

let serialize buf = function
  | Null -> Buffer.add_char buf '\000'
  | Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Int i ->
      Buffer.add_char buf '\002';
      write_int64 buf i
  | Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf '\004';
      write_int64 buf (String.length s);
      Buffer.add_string buf s
  | Date d ->
      Buffer.add_char buf '\005';
      write_int64 buf d

(** A read position in a serialized byte string; {!read} advances it. *)
type reader = { src : string; mutable pos : int }

let reader src pos = { src; pos }

let int64_at s p = Int64.to_int (String.get_int64_le s p)

(** [read r] parses the value at [r.pos] and moves [r.pos] past it. *)
let read r =
  let s = r.src and pos = r.pos in
  match s.[pos] with
  | '\000' ->
      r.pos <- pos + 1;
      Null
  | '\001' ->
      r.pos <- pos + 2;
      Bool (s.[pos + 1] = '\001')
  | '\002' ->
      r.pos <- pos + 9;
      Int (int64_at s (pos + 1))
  | '\003' ->
      r.pos <- pos + 9;
      Float (Int64.float_of_bits (String.get_int64_le s (pos + 1)))
  | '\004' ->
      let len = int64_at s (pos + 1) in
      r.pos <- pos + 9 + len;
      Str (String.sub s (pos + 9) len)
  | '\005' ->
      r.pos <- pos + 9;
      Date (int64_at s (pos + 1))
  | c -> invalid_arg (Printf.sprintf "Value.read: bad tag %C" c)

(** [skip r] moves [r.pos] past the value there without building it. *)
let skip r =
  let s = r.src and pos = r.pos in
  match s.[pos] with
  | '\000' -> r.pos <- pos + 1
  | '\001' -> r.pos <- pos + 2
  | '\002' | '\003' | '\005' -> r.pos <- pos + 9
  | '\004' -> r.pos <- pos + 9 + int64_at s (pos + 1)
  | c -> invalid_arg (Printf.sprintf "Value.skip: bad tag %C" c)
