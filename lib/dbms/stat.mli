(** Catalog statistics, in the shapes the paper's middleware consumes
    (Section 3): block counts, tuple counts and average tuple sizes for
    relations; min/max, distinct counts, histograms and index availability
    for attributes; clusterings for indexes.

    Statistics describe the table's current contents exactly when their
    [cardinality] equals the heap file's tuple count: the heap is
    append-only (INSERT and loads only append; DROP replaces the catalog
    entry, statistics and all), and index DDL updates the [indexed] and
    [clustered] flags in place. *)

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
