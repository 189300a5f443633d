(** The cost formulas (paper Figure 6 plus the generic DBMS formulas of
    [20]).  All return microseconds; [size] arguments are bytes
    ({!Tango_stats.Rel_stats.size}).

    Paper conventions: initialization costs are zero; output formation is
    free for sorting, selection and projection; selection and projection in
    the DBMS are free. *)

open Tango_sql

val sort_levels : size:float -> float
(** Merge levels of an external sort over [size] bytes. *)

val transfer_m : Factors.t -> size:float -> float
val transfer_d : Factors.t -> size:float -> float

val gather_m : Factors.t -> size:float -> ways:int -> float
(** Ordered k-way merge of per-shard `TRANSFER^M` streams ([ways]
    sources, [size] total bytes): one merge level at the sort rate. *)

val predicate_coefficient : Ast.expr -> float
(** The selection-condition coefficient f(P): number of atomic terms. *)

val filter_m : Factors.t -> pred:Ast.expr -> size:float -> float
val project_m : Factors.t -> size:float -> float
val sort_m : Factors.t -> size:float -> float
val merge_join_m :
  Factors.t -> left_size:float -> right_size:float -> out_size:float -> float
val temporal_join_m :
  Factors.t -> left_size:float -> right_size:float -> out_size:float -> float

val taggr_m : Factors.t -> in_size:float -> out_size:float -> float
(** `TAGGR^M`: the internal second-copy sort plus linear input/output
    terms.  The {e external} argument sort is a separate plan operator. *)

val dup_elim_m : Factors.t -> size:float -> float
val coalesce_m : Factors.t -> size:float -> float
val difference_m : Factors.t -> left_size:float -> right_size:float -> float

val scan_d : Factors.t -> size:float -> float
val select_d : size:float -> float
val project_d : size:float -> float
val sort_d : Factors.t -> size:float -> float

val join_d :
  Factors.t -> left_size:float -> right_size:float -> out_size:float -> float
(** Generic DBMS join: the middleware "does not know which join algorithm
    the DBMS will use". *)

val index_join_d : Factors.t -> outer_size:float -> out_size:float -> float
(** DBMS join when one side has a usable index on the join attribute. *)

val product_d : Factors.t -> out_size:float -> float

val taggr_d : Factors.t -> in_size:float -> out_size:float -> float
(** DBMS temporal aggregation — the simplified linear model of Figure 6
    (the real SQL evaluation is quadratic, which calibration surfaces as a
    very large per-byte factor). *)
