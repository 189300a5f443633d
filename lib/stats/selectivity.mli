(** Selectivity estimation (paper Section 3.3).

    Non-temporal predicates use standard techniques (uniform interpolation
    or histograms).  Temporal predicates — conjunctions bounding [T1] from
    above and [T2] from below — use the paper's semantic rule:

    [card(Overlaps(A, B)) = StartBefore(B, r) - EndBefore(A + 1, r)]

    [Naive] mode treats the bounds independently, reproducing the
    "factor of 40 too high" straightforward estimate. *)

open Tango_sql

type mode = Temporal | Naive

val start_before : Rel_stats.t -> float -> float
(** Estimated tuples whose period starts before the chronon — the paper's
    [StartBefore(A, r)]. *)

val timeslice_cardinality : Rel_stats.t -> a:float -> float
(** Estimated tuples whose period contains chronon [a]. *)

val col_name : Ast.expr -> string option
(** Qualified spelling of a column reference, if the expression is one. *)

val bound_of : Ast.expr -> (string * Ast.binop * float) option
(** Normalize a comparison conjunct to (attr, op, value) with the column on
    the left. *)

val conjunct_selectivity : Rel_stats.t -> Ast.expr -> float
(** Standard (non-temporal) selectivity of a single conjunct. *)

val selectivity : ?mode:mode -> Rel_stats.t -> Ast.expr -> float
(** Fraction of tuples retained by the predicate. *)
