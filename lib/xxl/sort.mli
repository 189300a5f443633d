(** `SORT^M`: stable external merge sort in the middleware.

    The input is consumed at [init] into sorted runs of at most [run_size]
    tuples; each pull merges the next batch out of the runs through a
    binary heap.  Stability is
    relied on by the rule set's list-equivalence reasoning. *)

open Tango_rel

val default_run_size : int

val sort : ?run_size:int -> Order.t -> Cursor.t -> Cursor.t
