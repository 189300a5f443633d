(** `SORT^M`: stable external merge sort in the middleware.

    The input is consumed at [init] into sorted runs of at most [run_size]
    tuples.  A single run (the usual case with {!default_run_size}) is
    handed out in slices of {!Cursor.default_batch_size}; several runs
    are merged batch by batch through a binary heap.  Every batch but
    the last is full.  Stability is relied on by the rule set's
    list-equivalence reasoning. *)

open Tango_rel

val default_run_size : int

val sort : ?run_size:int -> Order.t -> Cursor.t -> Cursor.t
