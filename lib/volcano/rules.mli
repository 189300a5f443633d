(** Transformation rules and heuristics (paper Section 4).

    Implemented rules:
    - {b Group 1}: T1 (temporal aggregation to middleware), T2/T3
      ((temporal) join to middleware), T1b/T1c/T1d (duplicate elimination,
      coalescing and difference — the §3.1 "additional algorithms"), T4–T6
      (σ/π/sort above [T^M]).
    - {b Group 2}: T7/T8 (transfer pairs cancel — class merges), T9
      (identity projection), T12 (subsumed sorts); T10/T11 are realized
      during physical planning.
    - {b Equivalences}: E1 (σ/π), E2 (join commutativity modulo a
      column-reordering projection), E3 (product associativity), E4/E5
      (sort/σ and sort/π, middleware side).
    - {b Group 3} (combine, from [20]): C1 merges adjacent selections, C2
      composes adjacent projections.
    - {b Group 4} (reduce expensive-operator arguments, from [20]): R1
      pushes side-resolvable conjuncts below joins/products, R2 pushes
      group-attribute conjuncts below ξᵀ, R3 seeds temporal-join arguments
      with the enclosing selection's time window. *)

open Tango_rel
open Tango_sql

val equi_pair :
  Schema.t -> Schema.t -> Ast.expr -> (string * string) option
(** Equi-join attribute pair resolvable on the given sides. *)

val taggr_order : Schema.t -> string list -> Order.t
(** The (G₁..Gₙ, T1) order `TAGGR^M` requires of its argument. *)

val find_item_by :
  ('a -> string option) -> 'a list -> string -> 'a option
(** The item whose key is exactly the name, else the unique item whose key
    has the name's base name ([None] when ambiguous or missing).  Unlike
    {!Schema.index}, the fallback also serves a qualified name: ["A.PosID"]
    finds a unique ["B.PosID"].  {!Tango_rel.Name_index} resolves the same
    way. *)

type rule = { name : string; apply : Memo.t -> int -> Memo.node -> bool }
(** [apply memo class element] returns whether the memo changed. *)

val all : rule list

type observer = rule:string -> Memo.t -> int -> unit
(** [f ~rule memo cls] is called after every successful rule application
    with the (canonical) class the rule changed — the hook behind the
    per-rule plan-verification gate ({!Tango_verify.Gate}). *)

val max_elements : int
(** The memo growth bound (5,000 class elements): saturation stops
    sweeping once the memo holds this many. *)

val saturate : ?rules:rule list -> ?observer:observer -> Memo.t -> unit
(** Apply rules to fixpoint, bounded by {!max_elements}.
    An element is swept through the rules again only when one of its child
    classes changed since its last sweep; the rules that fire, in order,
    are those of re-sweeping every element on every pass.  Each sweep
    counts in [volcano.rule_probes]. *)
