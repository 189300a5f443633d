(** `TAGGR^M`: the middleware temporal-aggregation algorithm (paper §3.4).

    Requires its argument sorted on (grouping attributes, T1).  A second
    copy of each group is sorted internally on T2; the two orderings are
    swept like a sort-merge, adding a tuple's contribution when its period
    starts and removing it when it ends, producing each constant interval
    in one pass.  Output is ordered on (grouping attributes, T1), written
    straight into batches of {!Cursor.default_batch_size} that are handed
    on full except the last; a group's sweep resumes in the next batch. *)

open Tango_algebra

val taggr : group_by:string list -> aggs:Op.agg list -> Cursor.t -> Cursor.t
