(** ANALYZE: compute catalog statistics for a table.

    Produces exactly the statistics the paper's middleware consumes: table
    cardinality, block count, average tuple size; per-column min/max,
    distinct count, null count, and (optionally) an equi-depth histogram;
    plus index availability and clustering flags. *)

open Tango_rel

(** Number of histogram buckets, matching typical DBMS defaults. *)
let buckets = 32

(* [Histogram.of_sorted]'s input: the numeric views of the sorted non-null
   values [vals.(nulls..)].  [Value.compare] orders numerics as their
   views do, so the views come out sorted; a column holding values of
   other kinds (a BOOL inserted into an INT column) is sorted again. *)
let sorted_views vals nulls =
  let xs =
    Array.init (Array.length vals - nulls) (fun i ->
        Value.to_float vals.(nulls + i))
  in
  let sorted = ref true in
  for i = 1 to Array.length xs - 1 do
    if Float.compare xs.(i - 1) xs.(i) > 0 then sorted := false
  done;
  if not !sorted then Array.stable_sort Float.compare xs;
  xs

(* Every statistic of one column from one stable sort of its values,
   sorted in place.  NULL ranks below every other value, so the NULLs
   form a prefix.  Stability keeps equal values in table order, so the
   first of the smallest run and the first of the largest run are the
   values a table-order fold that replaces only on a strict improvement
   keeps (for equal [Int 5] and [Float 5.0], the one met first). *)
let column_stats ~histogram (vals : Value.t array) =
  Array.stable_sort Value.compare vals;
  let n = Array.length vals in
  let nulls = ref 0 in
  while !nulls < n && Value.is_null vals.(!nulls) do incr nulls done;
  let nulls = !nulls in
  let distinct = ref (min n 1) in
  for i = 1 to n - 1 do
    if Value.compare vals.(i) vals.(i - 1) <> 0 then incr distinct
  done;
  let min_value, max_value =
    if nulls = n then (None, None)
    else begin
      let first_max = ref (n - 1) in
      while
        !first_max > nulls
        && Value.compare vals.(!first_max - 1) vals.(n - 1) = 0
      do
        decr first_max
      done;
      (Some vals.(nulls), Some vals.(!first_max))
    end
  in
  let histogram =
    if histogram && n > 0 then
      Some (Histogram.of_sorted ~buckets (sorted_views vals nulls))
    else None
  in
  (min_value, max_value, !distinct, nulls, histogram)

(** [run ?histograms table] scans the table once and computes its
    statistics; {!Database.analyze} attaches them to the catalog.
    [histograms] selects the numeric columns that get histograms; the
    with/without-histogram optimizer comparison of the paper's Query 2
    experiment toggles it. *)
let run ?(histograms = `All) (table : Catalog.table) : Stat.table_stats =
  let file = table.file in
  let schema = Tango_storage.Heap_file.schema file in
  let tuples = Relation.tuples (Tango_storage.Heap_file.to_relation file) in
  let columns =
    List.mapi
      (fun i (a : Schema.attribute) ->
        let numeric =
          match a.dtype with
          | Value.TInt | Value.TFloat | Value.TDate -> true
          | Value.TBool | Value.TStr -> false
        in
        let min_value, max_value, distinct, nulls, histogram =
          column_stats
            ~histogram:(numeric && Stat.wants_histogram histograms a.name)
            (Array.map (fun t -> t.(i)) tuples)
        in
        let indexed, clustered = Catalog.index_flags table a.name in
        {
          Stat.col = a.name;
          min_value;
          max_value;
          distinct;
          nulls;
          histogram;
          indexed;
          clustered;
        })
      (Schema.attributes schema)
  in
  {
    Stat.table = table.name;
    cardinality = Tango_storage.Heap_file.tuple_count file;
    blocks = Tango_storage.Heap_file.block_count file;
    avg_tuple_size = Tango_storage.Heap_file.avg_tuple_size file;
    columns;
    histograms;
  }
