(** The Statistics Collector (paper Figure 1): obtains statistics on base
    relations and attributes from the DBMS catalog and converts them to the
    middleware's {!Rel_stats.t} form, with attribute names qualified the way
    the algebra's [Scan] qualifies its output schema. *)

open Tango_rel
open Tango_dbms

let numeric_view (v : Value.t) : float option =
  match v with
  | Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _ ->
      Some (Value.to_float v)
  | Value.Str _ | Value.Null -> None

(** Convert catalog statistics for one table.  [qualifier] is the alias (or
    table name) the scan uses. *)
let of_table_stats ~(qualifier : string) (ts : Stat.table_stats) : Rel_stats.t
    =
  let card = float_of_int ts.Stat.cardinality in
  (* Distribute the measured average tuple size over columns proportionally
     to their per-dtype default widths, so projections estimate sizes
     sensibly. *)
  let raw_widths =
    List.map
      (fun (c : Stat.column_stats) ->
        match (c.min_value, c.max_value) with
        | Some (Value.Str _), _ | _, Some (Value.Str _) -> 16.0
        | _ -> 8.0)
      ts.Stat.columns
  in
  let total_raw = List.fold_left ( +. ) 0.0 raw_widths in
  let scale =
    if total_raw > 0.0 && ts.Stat.avg_tuple_size > 0.0 then
      ts.Stat.avg_tuple_size /. total_raw
    else 1.0
  in
  let cols =
    List.map2
      (fun (c : Stat.column_stats) raw ->
        ( qualifier ^ "." ^ c.Stat.col,
          {
            Rel_stats.distinct = float_of_int (max 1 c.Stat.distinct);
            min_v = Option.bind c.Stat.min_value numeric_view;
            max_v = Option.bind c.Stat.max_value numeric_view;
            histogram = c.Stat.histogram;
            avg_width = raw *. scale;
            indexed = c.Stat.indexed;
          } ))
      ts.Stat.columns raw_widths
  in
  { Rel_stats.card; cols }

(* The catalog's statistics, viewed without the histograms [want] does not
   select; the record itself when nothing is dropped. *)
let view (want : Stat.histograms) (ts : Stat.table_stats) =
  let dropped (c : Stat.column_stats) =
    c.histogram <> None && not (Stat.wants_histogram want c.col)
  in
  if not (List.exists dropped ts.columns) then ts
  else
    {
      ts with
      columns =
        List.map
          (fun c -> if dropped c then { c with Stat.histogram = None } else c)
          ts.columns;
      histograms = want;
    }

(** Collect statistics for a table from the catalog.  ANALYZE runs only
    when the catalog has no statistics describing the table's current
    version or they lack a histogram [histograms] asks for. *)
let collect ?histograms (db : Database.t) ~(qualifier : string)
    (table : string) : Rel_stats.t =
  let covers (ts : Stat.table_stats) want =
    List.for_all
      (fun (c : Stat.column_stats) ->
        Stat.wants_histogram ts.histograms c.col
        || not (Stat.wants_histogram want c.col))
      ts.columns
  in
  let ts =
    match (Database.current_stats db table, histograms) with
    | Some ts, None -> ts
    | Some ts, Some want when covers ts want -> view want ts
    | _ -> Database.analyze db ?histograms table
  in
  of_table_stats ~qualifier ts
