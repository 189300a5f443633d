(** Selectivity estimation (paper Section 3.3).

    Non-temporal predicates use standard techniques: uniform interpolation
    between the attribute minimum and maximum, or histogram buckets when
    available.  Temporal predicates — conjunctions bounding [T1] from above
    and [T2] from below, i.e. Overlaps and timeslice patterns — are
    estimated with the paper's semantic rule (the end of a period never
    precedes its start):

    [card(Overlaps(A, B)) = StartBefore(B, r) - EndBefore(A + 1, r)]

    The [Naive] mode disables this and treats the two bounds independently,
    reproducing the "factor of 40 too high" straightforward estimate the
    paper demonstrates; the Query 2 / E5 experiments compare the two. *)

open Tango_rel
open Tango_sql

type mode = Temporal | Naive

let default_unknown = 0.1

(* Count of values strictly below [v], using histogram when present, else
   uniform interpolation over [min, max]. *)
let count_below (s : Rel_stats.t) (col : Rel_stats.col) (v : float) : float =
  match col.Rel_stats.histogram with
  | Some h when Histogram.bucket_count h > 0 ->
      (* Scale: histograms count the analyzed rows; stats cardinality may
         have drifted, so normalize. *)
      let total = float_of_int (Histogram.total h) in
      if total <= 0.0 then 0.0
      else Histogram.count_below h v /. total *. s.Rel_stats.card
  | _ -> (
      match (col.Rel_stats.min_v, col.Rel_stats.max_v) with
      | Some lo, Some hi when hi > lo ->
          let frac = (v -. lo) /. (hi -. lo) in
          Float.max 0.0 (Float.min 1.0 frac) *. s.Rel_stats.card
      | Some lo, _ when v <= lo -> 0.0
      | _ -> s.Rel_stats.card /. 2.0)

(** [start_before s a]: estimated number of tuples whose period starts
    before chronon [a] — the paper's [StartBefore(A, r)]. *)
let start_before (s : Rel_stats.t) (a : float) : float =
  match Rel_stats.find s "T1" with
  | Some col -> count_below s col a
  | None -> s.Rel_stats.card /. 2.0

(** [end_before s a]: estimated number of tuples whose period ends before
    chronon [a] — the paper's [EndBefore(A, r)]. *)
let end_before (s : Rel_stats.t) (a : float) : float =
  match Rel_stats.find s "T2" with
  | Some col -> count_below s col a
  | None -> s.Rel_stats.card /. 2.0

(** Estimated cardinality of [Overlaps(a, b)] over [s] (periods intersecting
    [\[a, b)]). *)
let overlaps_cardinality (s : Rel_stats.t) ~(a : float) ~(b : float) : float =
  Float.max 0.0 (start_before s b -. end_before s (a +. 1.0))

(** Estimated cardinality of the timeslice at chronon [a] (periods
    containing [a]). *)
let timeslice_cardinality (s : Rel_stats.t) ~(a : float) : float =
  Float.max 0.0 (start_before s (a +. 1.0) -. end_before s (a +. 1.0))

(* ------------------------------------------------------------------ *)
(* Predicate analysis                                                   *)
(* ------------------------------------------------------------------ *)

let lit_value = function
  | Ast.Lit v -> (
      match v with
      | Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _ ->
          Some (Value.to_float v)
      | Value.Str _ | Value.Null -> None)
  | _ -> None

let col_name = function
  | Ast.Col (None, c) -> Some c
  | Ast.Col (Some q, c) -> Some (q ^ "." ^ c)
  | _ -> None

(* Normalize a comparison conjunct to (attr, op, value) with the column on
   the left. *)
let bound_of = function
  | Ast.Binop (op, l, r) -> (
      match (col_name l, lit_value r, lit_value l, col_name r) with
      | Some c, Some v, _, _ -> Some (c, op, v)
      | _, _, Some v, Some c ->
          let flip = function
            | Ast.Lt -> Ast.Gt
            | Ast.Le -> Ast.Ge
            | Ast.Gt -> Ast.Lt
            | Ast.Ge -> Ast.Le
            | op -> op
          in
          Some (c, flip op, v)
      | _ -> None)
  | _ -> None

let is_param = function Ast.Param _ -> true | _ -> false

let is_period_attr base e =
  match col_name e with
  | Some c -> String.equal (Schema.base_name c) base
  | None -> false

(* Standard selectivity of a single conjunct. *)
let rec conjunct_selectivity (s : Rel_stats.t) (e : Ast.expr) : float =
  let clamp f = Float.max 0.0 (Float.min 1.0 f) in
  match e with
  | Ast.Binop (Ast.And, a, b) ->
      conjunct_selectivity s a *. conjunct_selectivity s b
  | Ast.Binop (Ast.Or, a, b) ->
      let sa = conjunct_selectivity s a and sb = conjunct_selectivity s b in
      clamp (sa +. sb -. (sa *. sb))
  | Ast.Not a -> clamp (1.0 -. conjunct_selectivity s a)
  | Ast.Binop (Ast.Eq, a, b) when col_name a <> None && col_name b <> None ->
      (* column = column: 1 / max(distinct) *)
      let da = Rel_stats.distinct_of s (Option.get (col_name a)) in
      let db = Rel_stats.distinct_of s (Option.get (col_name b)) in
      1.0 /. Float.max 1.0 (Float.max da db)
  | Ast.Between (a, lo, hi) -> (
      match (col_name a, lit_value lo, lit_value hi) with
      | Some c, Some l, Some h ->
          conjunct_selectivity s
            (Ast.Binop
               (Ast.And,
                Ast.Binop (Ast.Ge, Ast.Col (None, c), Ast.Lit (Value.Float l)),
                Ast.Binop (Ast.Le, Ast.Col (None, c), Ast.Lit (Value.Float h))))
      | _ -> default_unknown)
  | Ast.Lit (Value.Bool true) -> 1.0
  | Ast.Lit (Value.Bool false) -> 0.0
  | Ast.Binop (op, a, b)
    when (col_name a <> None && is_param b)
         || (is_param a && col_name b <> None) ->
      (* Generic estimate for a parameterized comparison — the value is
         unknown while planning a template, so assume an "average"
         binding: equality hits one of the distinct values; a range
         keeps a fixed third (the industry default for unknown
         inequality bounds). *)
      let c =
        match col_name a with Some c -> c | None -> Option.get (col_name b)
      in
      (match op with
      | Ast.Eq -> 1.0 /. Float.max 1.0 (Rel_stats.distinct_of s c)
      | Ast.Neq -> 1.0 -. (1.0 /. Float.max 1.0 (Rel_stats.distinct_of s c))
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 1.0 /. 3.0
      | _ -> default_unknown)
  | _ -> (
      match bound_of e with
      | None -> default_unknown
      | Some (c, op, v) -> (
          match Rel_stats.find s c with
          | None -> default_unknown
          | Some col -> (
              let card = Float.max 1.0 s.Rel_stats.card in
              let below x = count_below s col x /. card in
              match op with
              | Ast.Eq -> 1.0 /. Float.max 1.0 col.Rel_stats.distinct
              | Ast.Neq -> 1.0 -. (1.0 /. Float.max 1.0 col.Rel_stats.distinct)
              | Ast.Lt -> clamp (below v)
              | Ast.Le -> clamp (below (v +. 1.0))
              | Ast.Gt -> clamp (1.0 -. below (v +. 1.0))
              | Ast.Ge -> clamp (1.0 -. below v)
              | _ -> default_unknown)))

(** Selectivity (fraction of tuples retained) of predicate [e] over a
    relation with statistics [s]. *)
let selectivity ?(mode = Temporal) (s : Rel_stats.t) (e : Ast.expr) : float =
  let conjuncts = Ast.conjuncts e in
  match mode with
  | Naive ->
      List.fold_left (fun acc c -> acc *. conjunct_selectivity s c) 1.0 conjuncts
  | Temporal ->
      (* Pull out the tightest T1 upper bound and T2 lower bound. *)
      let t1_upper = ref None and t2_lower = ref None in
      let rest = ref [] in
      List.iter
        (fun c ->
          match bound_of c with
          | Some (attr, Ast.Lt, v)
            when String.equal (Schema.base_name attr) "T1" ->
              let b = v in
              if match !t1_upper with None -> true | Some b' -> b < b' then
                t1_upper := Some b
          | Some (attr, Ast.Le, v)
            when String.equal (Schema.base_name attr) "T1" ->
              let b = v +. 1.0 in
              if match !t1_upper with None -> true | Some b' -> b < b' then
                t1_upper := Some b
          | Some (attr, Ast.Gt, v)
            when String.equal (Schema.base_name attr) "T2" ->
              let a = v in
              if match !t2_lower with None -> true | Some a' -> a > a' then
                t2_lower := Some a
          | Some (attr, Ast.Ge, v)
            when String.equal (Schema.base_name attr) "T2" ->
              let a = v -. 1.0 in
              if match !t2_lower with None -> true | Some a' -> a > a' then
                t2_lower := Some a
          | _ -> rest := c :: !rest)
        conjuncts;
      let base =
        match (!t1_upper, !t2_lower) with
        | Some b, Some a ->
            let card = Float.max 1.0 s.Rel_stats.card in
            Float.min 1.0 (overlaps_cardinality s ~a ~b /. card)
        | Some b, None ->
            let card = Float.max 1.0 s.Rel_stats.card in
            Float.max 0.0 (Float.min 1.0 (start_before s b /. card))
        | None, Some a ->
            let card = Float.max 1.0 s.Rel_stats.card in
            Float.max 0.0
              (Float.min 1.0 (1.0 -. (end_before s (a +. 1.0) /. card)))
        | None, None -> 1.0
      in
      List.fold_left (fun acc c -> acc *. conjunct_selectivity s c) base !rest

(* Keep period-attr helper exported for Derive. *)
let _ = is_period_attr
