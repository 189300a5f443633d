(** Minimal CSV import for relations (comma separator, double-quote
    escaping, typed header line). *)

val set_date_parser : (string -> int) -> unit
(** Override how DATE cells parse (default: raw chronon integers).
    {!Tango_temporal.Chronon} installs a parser that also accepts ISO
    dates. *)

val read_file : string -> Relation.t
(** Parse a CSV whose header is [Col:TYPE,Col:TYPE,...] with [TYPE] one
    of INT, FLOAT, VARCHAR, DATE, BOOL ({!Value.dtype_of_name}); the
    relation's schema is the header's columns in order.  Empty cells
    become [Null].  Raises [Failure] on a malformed header or a row whose
    field count differs from the header's. *)
