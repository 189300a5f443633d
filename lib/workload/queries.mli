(** The paper's four experiment queries (Section 5.2), both as temporal
    SQL for the full middleware pipeline and as hand-built plan trees
    matching the plan alternatives each figure compares.

    Plan trees are middleware-rooted operator trees accepted by
    {!Tango_core.Middleware.run_fixed}; the experiments time them over
    varying data, exactly as the paper varies relation sizes and
    selection periods. *)

open Tango_rel
open Tango_sql
open Tango_algebra

(** {1 Query 1: temporal aggregation (Figures 7 and 8)} *)

val q1_sql : string
val q1_order : Order.key list

val q1_plan1 : position:string -> unit -> Op.t
(** Sort in the DBMS, temporal aggregation in the middleware. *)

val q1_plan2 : position:string -> unit -> Op.t
(** Transfer, then sort and aggregate in the middleware. *)

val q1_plan3 : position:string -> unit -> Op.t
(** Everything in the DBMS (temporal aggregation as SQL). *)

val q1_plans : position:string -> unit -> (string * Op.t) list

(** {1 Query 2: aggregation + temporal join with selections (Figs 9, 10)} *)

val q2_sql : period_end:string -> string
val q2_order : Order.key list
val q2_sel_b : period_end:string -> Ast.expr
val q2_plan1 : position:string -> period_end:string -> unit -> Op.t
val q2_plan5 : position:string -> period_end:string -> unit -> Op.t
val q2_plan6 : position:string -> period_end:string -> unit -> Op.t

val q2_plans :
  position:string -> period_end:string -> unit -> (string * Op.t) list

(** {1 Query 3: temporal self-join (Figure 11a)} *)

val q3_sql : start_bound:string -> string
val q3_order : Order.key list
val q3_plan1 : position:string -> start_bound:string -> unit -> Op.t
val q3_plan2 : position:string -> start_bound:string -> unit -> Op.t

val q3_plans :
  position:string -> start_bound:string -> unit -> (string * Op.t) list

(** {1 Query 4: regular join with EMPLOYEE (Figure 11b)} *)

val q4_sql : string
val q4_order : Order.key list
val q4_plan1 : position:string -> employee:string -> unit -> Op.t
val q4_plan_dbms : position:string -> employee:string -> unit -> Op.t

(** {1 The whole workload} *)

val workload : (string * string) list
(** Named temporal-SQL texts of the four workload queries, with default
    parameters matching the experiments. *)
