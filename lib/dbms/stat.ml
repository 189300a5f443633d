(** Catalog statistics, in the shapes the paper says the middleware consumes
    (Section 3): "block counts, numbers of tuples, and average tuple sizes
    for relations; minimum values, maximum values, numbers of distinct
    values, histograms, and index availability for attributes; and
    clusterings for indexes." *)

open Tango_rel

type column_stats = {
  col : string;
  min_value : Value.t option;
  max_value : Value.t option;
  distinct : int;
  nulls : int;
  histogram : Histogram.t option;
  indexed : bool;
  clustered : bool;  (** true when an index on this column is clustered *)
}

type table_stats = {
  table : string;
  cardinality : int;
  blocks : int;
  avg_tuple_size : float;
  columns : column_stats list;
}

let column_stats ts name =
  List.find_opt (fun c -> String.equal c.col name) ts.columns

let pp_column ppf c =
  Fmt.pf ppf "%s: min=%a max=%a distinct=%d nulls=%d%s%s%s" c.col
    (Fmt.option ~none:(Fmt.any "-") Value.pp)
    c.min_value
    (Fmt.option ~none:(Fmt.any "-") Value.pp)
    c.max_value c.distinct c.nulls
    (if c.histogram <> None then " hist" else "")
    (if c.indexed then " indexed" else "")
    (if c.clustered then " clustered" else "")

let pp ppf ts =
  Fmt.pf ppf "%s: card=%d blocks=%d avg_size=%.1f@.%a" ts.table ts.cardinality
    ts.blocks ts.avg_tuple_size
    (Fmt.list ~sep:Fmt.cut pp_column)
    ts.columns
