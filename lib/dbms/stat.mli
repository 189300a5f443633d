(** Catalog statistics, in the shapes the paper's middleware consumes
    (Section 3): block counts, tuple counts and average tuple sizes for
    relations; min/max, distinct counts, histograms and index availability
    for attributes; clusterings for indexes.

    The catalog records the table version a record describes (see
    {!Catalog}); the record is current while that is the table's
    version. *)

open Tango_rel

type histograms = [ `All | `Cols of string list | `None ]
(** Which columns ANALYZE builds histograms for: every numeric one, none,
    or the numeric ones named. *)

val wants_histogram : histograms -> string -> bool
(** Whether the setting selects the named column. *)

type column_stats = {
  col : string;
  min_value : Value.t option;
  max_value : Value.t option;
  distinct : int;
  nulls : int;
  histogram : Histogram.t option;
  indexed : bool;
  clustered : bool;
}

type table_stats = {
  table : string;
  cardinality : int;
  blocks : int;
  avg_tuple_size : float;
  columns : column_stats list;
  histograms : histograms;
      (** the setting ANALYZE ran with; a numeric column it selects has a
          histogram (empty when the column is all NULL) *)
}

val column_stats : table_stats -> string -> column_stats option

val pp : Format.formatter -> table_stats -> unit
