(** Chronons: the discrete time points of the temporal model.

    A chronon is one day, counted from 1970-01-01 (negative earlier),
    matching the paper's day-granularity examples.  Calendar conversion is
    proleptic Gregorian. *)

type t = int

val compare : t -> t -> int

val of_ymd : y:int -> m:int -> d:int -> t

val of_string : string -> t
(** Parse ["YYYY-MM-DD"].  Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_value : Tango_rel.Value.t -> t
(** From a [Date] (or [Int]) value; raises [Invalid_argument] otherwise. *)
