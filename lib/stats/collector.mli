(** The Statistics Collector (paper Figure 1): obtains statistics on base
    relations and attributes from the DBMS catalog and converts them to the
    middleware's {!Rel_stats.t} form, qualified the way the algebra's
    [Scan] qualifies its output schema. *)

open Tango_dbms

val collect :
  ?histograms:[ `All | `Cols of string list | `None ] ->
  Database.t ->
  qualifier:string ->
  string ->
  Rel_stats.t
(** Collect for one table, running ANALYZE when the catalog has no
    statistics (or when a specific [histograms] setting is requested). *)
