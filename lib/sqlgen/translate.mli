(** The Translator-To-SQL component (paper Figure 1): converts
    DBMS-resident plan parts — subtrees below a [T^M] that reach base
    relations or [T^D] boundaries — into SQL.

    Output columns carry sanitized algebra names ([A.PosID] → [A__PosID])
    in schema order, so `TRANSFER^M` consumes results positionally.  Scans
    and selections over scans inline into FROM/WHERE (view merging), so the
    DBMS keeps its access paths.  Temporal aggregation becomes the
    constant-interval correlated-subquery SQL (the paper's "50-line
    query").  [Coalesce] and [Difference] have no DBMS translation. *)

open Tango_rel
open Tango_sql
open Tango_algebra

exception Untranslatable of string

val temp_table_schema : Schema.t -> Schema.t
(** Column names of the temp table a [T^D] creates for a middleware
    relation with this schema. *)

val translate : ?temp_name:(Op.t -> string) -> Op.t -> Ast.query
(** Translate a DBMS-resident subtree; [temp_name] assigns every [To_db]
    node its temp-table name.  Each node's schema is derived one level
    ({!Op.schema_step}) from its children's, at most once. *)

val translate_with_schema :
  ?temp_name:(Op.t -> string) -> Op.t -> Ast.query * Schema.t
(** {!translate}, and the subtree's output schema, [Op.schema op]. *)
