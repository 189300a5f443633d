(** Reference (naive, in-memory) semantics of the algebra.

    Defines the meaning of every operator directly over materialized
    relations, ignoring locations (transfers are identities).  This is the
    ground truth the middleware algorithms, the Translator-To-SQL output,
    and the optimizer's transformations are all tested against. *)

open Tango_rel

val eval : (string -> Relation.t) -> Op.t -> Relation.t
(** [eval lookup op] with [lookup] resolving base-table names.  The result
    schema is [Op.schema op]. *)
