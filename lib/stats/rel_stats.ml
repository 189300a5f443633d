(** Estimated statistics for a (possibly intermediate) relation.

    Base-relation statistics come from the DBMS catalog via the Statistics
    Collector; {!Derive} propagates them through algebra operators.  All
    numeric values are floats, since estimates are fractional.  Column
    values are viewed numerically (dates as chronons); string columns keep
    only distinct counts. *)

open Tango_rel

type col = {
  distinct : float;
  min_v : float option;  (** numeric view of the minimum *)
  max_v : float option;
  histogram : Histogram.t option;
  avg_width : float;  (** average bytes this column contributes per tuple *)
  indexed : bool;
      (** a usable DBMS index exists on this column (only meaningful for
          base tables and selections directly over them, where the
          generated SQL keeps the base table visible to the DBMS) *)
}

type t = {
  card : float;  (** estimated cardinality *)
  cols : (string * col) list;  (** per output-schema attribute *)
}

let default_width = function
  | Value.TBool -> 1.0
  | Value.TInt | Value.TFloat | Value.TDate -> 8.0
  | Value.TStr -> 16.0

let col_default ?(width = 8.0) card =
  { distinct = card; min_v = None; max_v = None; histogram = None;
    avg_width = width; indexed = false }

let find (s : t) name =
  match List.assoc_opt name s.cols with
  | Some c -> Some c
  | None ->
      (* fall back to the unique column with the name's base name; unlike
         Schema.index this also serves a qualified name ("A.PosID" finds a
         unique "B.PosID").  Name_index resolves the same way. *)
      let base = Schema.base_name name in
      let matches =
        List.filter (fun (n, _) -> String.equal (Schema.base_name n) base) s.cols
      in
      (match matches with [ (_, c) ] -> Some c | _ -> None)

let avg_tuple_size (s : t) =
  List.fold_left (fun acc (_, c) -> acc +. c.avg_width) 0.0 s.cols

(** [size s] — the [size(r)] input of the cost formulas: cardinality times
    average tuple size, in bytes. *)
let size (s : t) = s.card *. avg_tuple_size s

(** Is there a usable index on attribute [name]? *)
let indexed_on (s : t) name =
  match find s name with Some c -> c.indexed | None -> false

let distinct_of (s : t) name =
  match find s name with
  | Some c -> Float.max 1.0 (Float.min c.distinct s.card)
  | None -> Float.max 1.0 s.card

(* Merge two per-shard column estimates of the same attribute: ranges
   union, widths average weighted by cardinality, and distinct counts add
   (exact for the partition column, whose slices are disjoint; an
   overestimate elsewhere, clamped by the caller's card).  Histograms are
   dropped — per-shard bucket layouts need not line up. *)
let merge_col (card_a, (a : col)) (card_b, (b : col)) : col =
  let min_o f x y =
    match (x, y) with None, v | v, None -> v | Some x, Some y -> Some (f x y)
  in
  let total = Float.max 1.0 (card_a +. card_b) in
  {
    distinct = a.distinct +. b.distinct;
    min_v = min_o Float.min a.min_v b.min_v;
    max_v = min_o Float.max a.max_v b.max_v;
    histogram = None;
    avg_width =
      ((a.avg_width *. card_a) +. (b.avg_width *. card_b)) /. total;
    indexed = a.indexed && b.indexed;
  }

(** Merge per-shard statistics of one range-partitioned relation into
    statistics of the whole: cardinalities add, ranges union, and distinct
    counts add clamped to the merged cardinality. *)
let merge (parts : t list) : t =
  match parts with
  | [] -> invalid_arg "Rel_stats.merge: empty"
  | first :: rest ->
      let merged =
        List.fold_left
          (fun (acc : t) (s : t) ->
            {
              card = acc.card +. s.card;
              cols =
                List.map
                  (fun (name, c) ->
                    match List.assoc_opt name s.cols with
                    | None -> (name, c)
                    | Some c' -> (name, merge_col (acc.card, c) (s.card, c')))
                  acc.cols;
            })
          first rest
      in
      {
        merged with
        cols =
          List.map
            (fun (n, c) ->
              (n, { c with distinct = Float.min c.distinct merged.card }))
            merged.cols;
      }

let pp ppf (s : t) =
  Fmt.pf ppf "card=%.1f avg_size=%.1f [%a]" s.card (avg_tuple_size s)
    (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (n, c) ->
         Fmt.pf ppf "%s: d=%.0f%s" n c.distinct
           (match (c.min_v, c.max_v) with
           | Some a, Some b -> Printf.sprintf " [%g..%g]" a b
           | _ -> "")))
    s.cols
