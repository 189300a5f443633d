(** Estimated statistics for a (possibly intermediate) relation.

    Base-relation statistics come from the DBMS catalog via the Statistics
    Collector; {!Derive} propagates them through algebra operators.
    Values are viewed numerically (dates as chronons). *)

open Tango_rel

type col = {
  distinct : float;
  min_v : float option;  (** numeric view of the minimum *)
  max_v : float option;
  histogram : Histogram.t option;
  avg_width : float;  (** average bytes this column contributes per tuple *)
  indexed : bool;
      (** a usable DBMS index exists on this column (meaningful only while
          the generated SQL keeps the base table visible) *)
}

type t = {
  card : float;  (** estimated cardinality *)
  cols : (string * col) list;  (** per output-schema attribute *)
}

val col_default : ?width:float -> float -> col
(** Uninformative column statistics for a relation of the given
    cardinality. *)

val find : t -> string -> col option
(** The column named exactly [name], else the unique column with [name]'s
    base name.  Unlike {!Schema.index}, the fallback also serves a
    qualified name: ["A.PosID"] finds a unique ["B.PosID"].
    {!Tango_rel.Name_index} resolves the same way. *)

val avg_tuple_size : t -> float

val size : t -> float
(** The [size(r)] input of the cost formulas: cardinality × average tuple
    size, in bytes. *)

val indexed_on : t -> string -> bool

val distinct_of : t -> string -> float
(** Distinct count clamped to [1, card]. *)

val merge : t list -> t
(** Merge per-shard statistics of one range-partitioned relation into
    statistics of the whole relation: cardinalities add, value ranges
    union, distinct counts add (clamped to the merged cardinality — exact
    for the partition column, an overestimate elsewhere), widths average
    weighted by cardinality, and histograms are dropped.  Raises
    [Invalid_argument] on an empty list. *)
