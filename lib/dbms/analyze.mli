(** ANALYZE: compute catalog statistics for a table — exactly what the
    paper's middleware consumes: cardinality, blocks, average tuple size;
    per-column min/max, distinct and null counts, optional equi-depth
    histograms; index availability and clustering. *)

val run :
  ?histograms:[ `All | `Cols of string list | `None ] ->
  ?buckets:int ->
  Catalog.table ->
  Stat.table_stats
(** Scan the table once, attach fresh statistics to it, and return them.
    The with/without-histograms optimizer comparison (paper Query 2)
    toggles [histograms]. *)
