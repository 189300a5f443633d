(** Middleware join algorithms: `MERGEJOIN^M` and `TJOIN^M`, both
    sort-merge over inputs sorted on the join attributes (paper rules
    T2/T3).

    The temporal join concatenates the non-period attributes of both inputs
    and appends the period intersection as unqualified [T1]/[T2], matching
    {!Tango_algebra.Op.Temporal_join}'s schema.

    Tuples with a NULL join key never match (SQL's [=]).  Output tuples
    are written straight into batches of {!Cursor.default_batch_size},
    each handed on full except the last. *)

open Tango_sql

val merge_join :
  ?pred:Ast.expr ->
  left_keys:string list ->
  right_keys:string list ->
  Cursor.t ->
  Cursor.t ->
  Cursor.t
(** Equi-join of inputs sorted on the key attributes; [pred] is a residual
    predicate over the concatenated schema, checked on key-matched pairs
    only (it need not repeat the key equality).  Output follows the left
    input's key order. *)

val temporal_merge_join :
  ?pred:Ast.expr ->
  left_keys:string list ->
  right_keys:string list ->
  Cursor.t ->
  Cursor.t ->
  Cursor.t
(** Temporal equi-join (period overlap implicit) of sorted inputs. *)
