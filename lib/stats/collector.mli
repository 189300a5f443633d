(** The Statistics Collector (paper Figure 1): obtains statistics on base
    relations and attributes from the DBMS catalog and converts them to the
    middleware's {!Rel_stats.t} form, qualified the way the algebra's
    [Scan] qualifies its output schema. *)

open Tango_dbms

val collect :
  ?histograms:Stat.histograms ->
  Database.t ->
  qualifier:string ->
  string ->
  Rel_stats.t
(** Collect for one table.  The catalog's statistics are reused whenever
    they describe the table's current version (see {!Database.current_stats})
    and were analyzed with every histogram [histograms] selects;
    histograms it does not select are dropped from the returned view, not
    from the catalog.  Otherwise ANALYZE runs with [histograms] (default
    [`All]); its statistics replace the catalog's and advance the table's
    version. *)
