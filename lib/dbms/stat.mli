(** Catalog statistics, in the shapes the paper's middleware consumes
    (Section 3): block counts, tuple counts and average tuple sizes for
    relations; min/max, distinct counts, histograms and index availability
    for attributes; clusterings for indexes. *)

open Tango_rel

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
}

val column_stats : table_stats -> string -> column_stats option

val pp : Format.formatter -> table_stats -> unit
