(** The temporal-SQL front end: parses a VALIDTIME SQL subset (the parser
    module the paper left unimplemented) and compiles it to an initial
    algebraic query plan that assigns all processing to the DBMS with a
    single [T^M] on top (paper §2.1).

    [VALIDTIME SELECT] has sequenced semantics: every source must be
    temporal (carry T1/T2); multiple sources combine with temporal joins;
    [GROUP BY] plus aggregates denote temporal aggregation; [DISTINCT]
    denotes duplicate elimination and [VALIDTIME COALESCE SELECT]
    coalescing; the result is temporal (T1/T2 appended when unlisted).
    Without [VALIDTIME], the query is regular SQL. *)

open Tango_rel
open Tango_algebra

exception Unsupported of string

val compile : lookup:(string -> Schema.t) -> string -> Op.t
(** Parse and compile temporal SQL to an algebra tree (no transfer).
    [lookup] resolves base-table schemas. *)

val initial_plan : lookup:(string -> Schema.t) -> string -> Op.t
(** {!compile} wrapped in the top [T^M]. *)

val required_order : string -> Order.t
(** The query's outermost ORDER BY, as the root's required physical
    property. *)

val initial_plan_and_order :
  lookup:(string -> Schema.t) -> string -> Op.t * Order.t
(** {!initial_plan} and {!required_order} from one parse of the text. *)
