(** ANALYZE: compute catalog statistics for a table — exactly what the
    paper's middleware consumes: cardinality, blocks, average tuple size;
    per-column min/max, distinct and null counts, optional equi-depth
    histograms; index availability and clustering. *)

val run : ?histograms:Stat.histograms -> Catalog.table -> Stat.table_stats
(** Scan the table once and return its statistics, which
    {!Database.analyze} attaches to the catalog.  Each column's
    statistics come from one stable sort of its values.
    Histograms have 32 buckets; [histograms] (default [`All]) selects the
    columns that get one, which the with/without-histograms optimizer
    comparison (paper Query 2) toggles. *)
