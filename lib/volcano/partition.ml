(** Partition analysis for sharded DBMS subtrees.  See the interface for
    the soundness argument per operator. *)

open Tango_rel
open Tango_algebra
open Tango_sql

type shard = { shard_name : string; lo : float option; hi : float option }

type layout = {
  table : string;
  column : string;
  shards : shard list;
}

type interval = float option * float option

let top : interval = (None, None)

let inter ((ga, la) : interval) ((gb, lb) : interval) : interval =
  let max_o a b =
    match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (max a b)
  in
  let min_o a b =
    match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (min a b)
  in
  (max_o ga gb, min_o la lb)

(* [lo, hi) overlaps [ge, le] — None is unbounded on its side. *)
let overlaps (s : shard) ((ge, le) : interval) =
  (match (s.lo, le) with Some lo, Some le -> lo <= le | _ -> true)
  && match (s.hi, ge) with Some hi, Some ge -> hi > ge | _ -> true

let restrict shards interval = List.filter (fun s -> overlaps s interval) shards

let lit_float = function
  | Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _ as v ->
      Some (Value.to_float v)
  | Value.Str _ | Value.Null -> None

(* A conjunct narrows the interval only when we positively recognize it:
   <col> <cmp> <literal> (either operand order) or BETWEEN, with the column
   matched by base name.  `<` and `>` are widened to `<=`/`>=`: the
   interval is a superset, which only ever keeps extra shards. *)
let interval_of_conjunct ~column (e : Ast.expr) : interval =
  let is_col = function
    | Ast.Col (_, name) -> Schema.base_name name = column
    | _ -> false
  in
  let lit = function Ast.Lit v -> lit_float v | _ -> None in
  match e with
  | Ast.Binop (op, l, r) when is_col l -> (
      match (op, lit r) with
      | (Ast.Lt | Ast.Le), Some v -> (None, Some v)
      | (Ast.Gt | Ast.Ge), Some v -> (Some v, None)
      | Ast.Eq, Some v -> (Some v, Some v)
      | _ -> top)
  | Ast.Binop (op, l, r) when is_col r -> (
      match (op, lit l) with
      | (Ast.Lt | Ast.Le), Some v -> (Some v, None)
      | (Ast.Gt | Ast.Ge), Some v -> (None, Some v)
      | Ast.Eq, Some v -> (Some v, Some v)
      | _ -> top)
  | Ast.Between (c, a, b) when is_col c -> (
      match (lit a, lit b) with
      | Some a, Some b -> (Some a, Some b)
      | _ -> top)
  | _ -> top

let interval_of_pred ~column (pred : Ast.expr) : interval =
  List.fold_left
    (fun acc c -> inter acc (interval_of_conjunct ~column c))
    top (Ast.conjuncts pred)

type verdict =
  | Unpartitioned
  | Scatter of { shards : shard list; traceable : bool }
  | Unsafe of string

(* Internal walk state over the subtree. *)
type state =
  | NP  (** replicated inputs only *)
  | P of { interval : interval; traceable : bool }
  | Bad of string

let analyze (layout : layout) (op : Op.t) : verdict =
  let column = Schema.base_name layout.column in
  let rec walk (op : Op.t) : state =
    match op with
    | Op.Scan { table; _ } ->
        if table = layout.table then P { interval = top; traceable = true }
        else NP
    | Op.Select { pred; arg } -> (
        match walk arg with
        | P { interval; traceable = true } ->
            P
              {
                interval = inter interval (interval_of_pred ~column pred);
                traceable = true;
              }
        | s -> s)
    | Op.Sort { arg; _ } -> walk arg
    | Op.Project { arg; _ } -> (
        (* projection may drop or recompute the partition column: stays
           partitioned, stops the predicate trace *)
        match walk arg with
        | P { interval; _ } -> P { interval; traceable = false }
        | s -> s)
    | Op.Product { left; right }
    | Op.Join { left; right; _ }
    | Op.Temporal_join { left; right; _ } -> (
        match (walk left, walk right) with
        | (Bad _ as b), _ | _, (Bad _ as b) -> b
        | P _, P _ ->
            Bad
              (Printf.sprintf
                 "join of two %s partitions does not distribute over the \
                  shards"
                 layout.table)
        | P { interval; _ }, NP | NP, P { interval; _ } ->
            (* partitioned ⋈ replicated: distributes over union *)
            P { interval; traceable = false }
        | NP, NP -> NP)
    | Op.Temporal_aggregate { arg; _ } -> (
        match walk arg with
        | P _ -> Bad "temporal aggregation does not distribute over shards"
        | s -> s)
    | Op.Dup_elim arg -> (
        match walk arg with
        | P _ -> Bad "duplicate elimination does not distribute over shards"
        | s -> s)
    | Op.Coalesce arg -> (
        match walk arg with
        | P _ -> Bad "coalescing does not distribute over shards"
        | s -> s)
    | Op.Difference { left; right } -> (
        match (walk left, walk right) with
        | (Bad _ as b), _ | _, (Bad _ as b) -> b
        | (P _, _ | _, P _) ->
            Bad "difference does not distribute over shards"
        | NP, NP -> NP)
    | Op.To_db _ ->
        (* a TRANSFER^D temporary: replicated to every backend *)
        NP
    | Op.To_mw arg ->
        (* not expected inside a DBMS subtree; analyze what it wraps *)
        walk arg
  in
  match walk op with
  | NP -> Unpartitioned
  | Bad msg -> Unsafe msg
  | P { interval; traceable } ->
      Scatter { shards = restrict layout.shards interval; traceable }
