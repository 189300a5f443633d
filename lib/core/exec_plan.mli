(** Execution-ready plans (paper Figure 5).

    A chosen physical plan becomes a middleware pipeline whose leaves are
    `TRANSFER^M` algorithms holding SQL for the DBMS-resident parts; a
    transfer's [deps] are `TRANSFER^D` steps that first materialize
    middleware results into temp tables (the dashed "sequence" edges of
    the paper's figure) and run during its [init].

    Execution is instrumented: every node records wall time and tuples
    produced, and the bytes produced when the run context counts them,
    feeding the middleware's cost-factor adaptation.  The counts are
    exact on every run; the clock and meters are read once per batch,
    and the bytes are an int sum over the batch's tuples. *)

open Tango_rel
open Tango_sql
open Tango_algebra

type node = {
  kind : kind;
  schema : Schema.t;
  mutable elapsed_us : float;  (** measured during the last execution *)
  mutable out_bytes : float;  (** 0 unless the run counts bytes *)
  mutable out_tuples : int;
  mutable page_reads : int;  (** inclusive: DBMS pages read while running *)
  mutable roundtrips : int;  (** inclusive: boundary round trips while running *)
}

and kind =
  | Transfer_m of { sql : Ast.query; deps : dep list }
  | Scatter of {
      sql : Ast.query;
      deps : dep list;
      shard_names : string list;
      merge_order : Order.t;  (** the DBMS subtree's output order *)
    }
      (** partition-aware transfer: the same SQL on each named shard,
          per-shard streams combined by an ordered {!Tango_xxl.Gather}
          merge *)
  | Filter of Ast.expr * node
  | Project of (Ast.expr * string) list * node
  | Sort of Order.t * node
  | Sort_noop of node
  | Merge_join of {
      pred : Ast.expr;
          (** the residual: the join predicate without the key equality
              the merge enforces *)
      left_keys : string list;
      right_keys : string list;
      left : node;
      right : node;
    }
  | Tjoin of {
      pred : Ast.expr;  (** the residual, as for [Merge_join] *)
      left_keys : string list;
      right_keys : string list;
      left : node;
      right : node;
    }
  | Taggr of { group_by : string list; aggs : Op.agg list; arg : node }
  | Dupelim of node
  | Coalesce of node
  | Difference of node * node

and dep = { table : string; source : node }

exception Unbuildable of string

val of_physical :
  Tango_dbms.Database.t -> Tango_volcano.Physical.plan -> node * string list
(** Build from a middleware-resident physical plan; also returns the temp
    tables the plan will create (to drop afterwards). *)

val alpha_normalize : Ast.query -> Ast.query
(** Canonicalize table aliases (and the output column names derived from
    them) so that alpha-equivalent SQL statements compare equal — the key
    under which transfers are shared. *)

(** A per-execution context; when [share_transfers] is set (the default),
    alpha-equivalent dependency-free `TRANSFER^M` statements are fetched
    from the DBMS only once — the paper's §7 "issue only one T^M"
    refinement.  [count_bytes] makes every node sum the bytes of the
    tuples it produces, a walk over every tuple: set it only when
    something reads [out_bytes] (the trace, profiling). *)
type run_ctx

val run_ctx :
  ?share_transfers:bool -> count_bytes:bool -> Tango_dbms.Topology.t -> run_ctx

val build_cursor : run_ctx -> node -> Tango_xxl.Cursor.t

val to_trace : node -> Tango_obs.Trace.span
(** Convert an executed (measured) plan into a span subtree — one span per
    operator with wall time, tuples/bytes produced, and inclusive page
    reads / boundary round trips — ready to graft into a query trace. *)

val kind_name : node -> string
val children : node -> node list
val iter : (node -> unit) -> node -> unit
val to_string : node -> string
