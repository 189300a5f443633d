(** Derivation of statistics for intermediate relations (paper Section 3):
    given base-relation statistics, estimate cardinality and column
    statistics for every operator's output.  The temporal-aggregation
    estimate implements the paper's minimum/maximum bounds with the 60 %
    rule used for the experiments. *)

open Tango_rel
open Tango_sql
open Tango_algebra

type env = {
  base : qualifier:string -> string -> Rel_stats.t;
      (** statistics for a base table under a qualifier *)
  mode : Selectivity.mode;  (** temporal or naive selection estimation *)
}

let env ?(mode = Selectivity.Temporal) base = { base; mode }

let scale_col factor (c : Rel_stats.col) =
  {
    c with
    Rel_stats.distinct = Float.max 1.0 (c.Rel_stats.distinct *. factor);
  }

(* After an operator that hides the base table behind a derived table or a
   temp table, its indexes are no longer usable by the consumer's SQL. *)
let strip_indexes (s : Rel_stats.t) =
  { s with
    Rel_stats.cols =
      List.map (fun (n, c) -> (n, { c with Rel_stats.indexed = false })) s.Rel_stats.cols }

(* After a selection with selectivity [sel], distinct counts shrink but not
   below 1; histograms and min/max are kept as approximations, except for
   attributes explicitly bounded by the predicate, whose min/max tighten. *)
let apply_selection (s : Rel_stats.t) (pred : Ast.expr) (sel : float) :
    Rel_stats.t =
  let bounds = List.filter_map Selectivity.bound_of (Ast.conjuncts pred) in
  let tighten name (c : Rel_stats.col) =
    List.fold_left
      (fun (c : Rel_stats.col) (attr, op, v) ->
        if not (String.equal (Schema.base_name attr) (Schema.base_name name))
        then c
        else
          match op with
          | Ast.Lt | Ast.Le ->
              {
                c with
                Rel_stats.max_v =
                  Some
                    (match c.Rel_stats.max_v with
                    | Some m -> Float.min m v
                    | None -> v);
              }
          | Ast.Gt | Ast.Ge ->
              {
                c with
                Rel_stats.min_v =
                  Some
                    (match c.Rel_stats.min_v with
                    | Some m -> Float.max m v
                    | None -> v);
              }
          | Ast.Eq ->
              { c with Rel_stats.min_v = Some v; max_v = Some v; distinct = 1.0 }
          | _ -> c)
      c bounds
  in
  {
    Rel_stats.card = Float.max 0.0 (s.Rel_stats.card *. sel);
    cols =
      List.map
        (fun (n, c) -> (n, tighten n (scale_col (Float.max sel 0.001) c)))
        s.Rel_stats.cols;
  }

(* Equi-join attribute pairs from a predicate. *)
let equi_pairs pred =
  List.filter_map
    (fun c ->
      match c with
      | Ast.Binop (Ast.Eq, a, b) -> (
          match (Selectivity.col_name a, Selectivity.col_name b) with
          | Some ca, Some cb -> Some (ca, cb)
          | _ -> None)
      | _ -> None)
    (Ast.conjuncts pred)

let join_cardinality (l : Rel_stats.t) (r : Rel_stats.t) pred =
  let cross = l.Rel_stats.card *. r.Rel_stats.card in
  match equi_pairs pred with
  | [] ->
      (* theta join: fall back to conjunct selectivity over the product *)
      let merged = { Rel_stats.card = cross; cols = l.Rel_stats.cols @ r.Rel_stats.cols } in
      cross *. Selectivity.conjunct_selectivity merged pred
  | pairs ->
      List.fold_left
        (fun acc (ca, cb) ->
          let da =
            match Rel_stats.find l ca with
            | Some c -> c.Rel_stats.distinct
            | None -> (
                match Rel_stats.find r ca with
                | Some c -> c.Rel_stats.distinct
                | None -> 1.0)
          and db =
            match Rel_stats.find r cb with
            | Some c -> c.Rel_stats.distinct
            | None -> (
                match Rel_stats.find l cb with
                | Some c -> c.Rel_stats.distinct
                | None -> 1.0)
          in
          acc /. Float.max 1.0 (Float.max da db))
        cross pairs

(* Expected fraction of (already key-matched) tuple pairs whose periods
   overlap: (d1 + d2) / span, durations and span estimated from the period
   attributes' min/max. *)
let temporal_overlap_factor (l : Rel_stats.t) (r : Rel_stats.t) =
  let span_and_duration (s : Rel_stats.t) =
    match (Rel_stats.find s "T1", Rel_stats.find s "T2") with
    | Some c1, Some c2 -> (
        match
          (c1.Rel_stats.min_v, c1.Rel_stats.max_v, c2.Rel_stats.min_v,
           c2.Rel_stats.max_v)
        with
        | Some lo1, Some hi1, Some lo2, Some hi2 ->
            let span = Float.max 1.0 (hi2 -. lo1) in
            (* mean duration approximated from midpoints *)
            let dur = Float.max 1.0 (((lo2 +. hi2) /. 2.0) -. ((lo1 +. hi1) /. 2.0)) in
            Some (span, dur)
        | _ -> None)
    | _ -> None
  in
  match (span_and_duration l, span_and_duration r) with
  | Some (span_l, d1), Some (span_r, d2) ->
      let span = Float.max span_l span_r in
      Float.min 1.0 ((d1 +. d2) /. span)
  | _ -> 0.5

(** Cardinality bounds and estimate for temporal aggregation (paper
    Section 3.4). *)
let taggr_cardinality (s : Rel_stats.t) (group_by : string list) :
    float * float * float =
  let card = Float.max 1.0 s.Rel_stats.card in
  let d name = Rel_stats.distinct_of s name in
  let d_t1 = d "T1" and d_t2 = d "T2" in
  let group_ds = List.map d group_by in
  let min_card =
    List.fold_left Float.min
      (Float.min (d_t1 +. 1.0) (d_t2 +. 1.0))
      (match group_ds with [] -> [ card ] | ds -> ds)
  in
  let max_card =
    match group_ds with
    | [] -> d_t1 +. d_t2 +. 1.0
    | ds ->
        let max_d = List.fold_left Float.max 1.0 ds in
        (((card /. max_d) *. 2.0) -. 1.0) *. max_d
  in
  let max_card = Float.min max_card ((card *. 2.0) -. 1.0) in
  let estimate =
    let sixty = 0.6 *. max_card in
    if sixty > min_card then sixty else min_card
  in
  (min_card, max_card, Float.max 1.0 estimate)

(** One level of derivation: the statistics of [op]'s top operator's output
    given its arguments' statistics and (lazily) schemas, in {!Op.children}
    order; [op]'s own arguments are not looked at.  The schemas are forced
    only by the temporal join, whose output drops each side's period. *)
let step (e : env) (op : Op.t) (args : (Rel_stats.t * Schema.t Lazy.t) list)
    : Rel_stats.t =
  let arg () = match args with [ (s, _) ] -> s | _ -> invalid_arg "Derive.step" in
  let args2 () =
    match args with [ l; r ] -> (l, r) | _ -> invalid_arg "Derive.step"
  in
  match op with
  | Op.Scan { table; alias; _ } ->
      e.base ~qualifier:(Option.value alias ~default:table) table
  | Op.Select { pred; _ } ->
      let s = arg () in
      let sel = Selectivity.selectivity ~mode:e.mode s pred in
      apply_selection s pred sel
  | Op.Project { items; _ } ->
      let s = arg () in
      let index =
        lazy (Name_index.make (fun (n, _) -> Some n) s.Rel_stats.cols)
      in
      let cols =
        List.map
          (fun (expr, name) ->
            match expr with
            | Ast.Col _ -> (
                match
                  Name_index.find (Lazy.force index)
                    (Option.get (Selectivity.col_name expr))
                with
                | Some (_, c) -> (name, c)
                | None -> (name, Rel_stats.col_default s.Rel_stats.card))
            | _ -> (name, Rel_stats.col_default s.Rel_stats.card))
          items
      in
      strip_indexes { s with Rel_stats.cols }
  | Op.Sort _ | Op.To_mw _ | Op.To_db _ -> strip_indexes (arg ())
  | Op.Product _ ->
      let (l, _), (r, _) = args2 () in
      strip_indexes
        {
          Rel_stats.card = l.Rel_stats.card *. r.Rel_stats.card;
          cols = l.Rel_stats.cols @ r.Rel_stats.cols;
        }
  | Op.Join { pred; _ } ->
      let (l, _), (r, _) = args2 () in
      strip_indexes
        {
          Rel_stats.card = join_cardinality l r pred;
          cols = l.Rel_stats.cols @ r.Rel_stats.cols;
        }
  | Op.Temporal_join { pred; _ } ->
      let (l, sl), (r, sr) = args2 () in
      let card = join_cardinality l r pred *. temporal_overlap_factor l r in
      let keep (s : Rel_stats.t) side_schema =
        let attrs = Op.non_period_attrs side_schema in
        let names = Hashtbl.create (List.length attrs) in
        List.iter
          (fun (a : Schema.attribute) -> Hashtbl.replace names a.Schema.name ())
          attrs;
        List.filter (fun (n, _) -> Hashtbl.mem names n) s.Rel_stats.cols
      in
      let sl = Lazy.force sl and sr = Lazy.force sr in
      let t_cols =
        let of_side (s : Rel_stats.t) name =
          match Rel_stats.find s name with
          | Some c -> c
          | None -> Rel_stats.col_default card
        in
        [
          ("T1", of_side l "T1"); ("T2", of_side r "T2");
        ]
      in
      strip_indexes { Rel_stats.card; cols = keep l sl @ keep r sr @ t_cols }
  | Op.Temporal_aggregate { group_by; aggs; _ } ->
      let s = arg () in
      let _, _, card = taggr_cardinality s group_by in
      let group_cols =
        List.map
          (fun g ->
            match Rel_stats.find s g with
            | Some c -> (g, c)
            | None -> (g, Rel_stats.col_default card))
          group_by
      in
      let t1 = Rel_stats.find s "T1" and t2 = Rel_stats.find s "T2" in
      let period_col existing =
        match existing with
        | Some (c : Rel_stats.col) -> { c with Rel_stats.distinct = Float.min card c.Rel_stats.distinct *. 2.0 }
        | None -> Rel_stats.col_default card
      in
      let agg_cols =
        List.map
          (fun (a : Op.agg) ->
            (a.Op.out, Rel_stats.col_default ~width:8.0 card))
          aggs
      in
      {
        Rel_stats.card;
        cols =
          group_cols
          @ [ ("T1", period_col t1); ("T2", period_col t2) ]
          @ agg_cols;
      }
  | Op.Dup_elim _ ->
      let s = arg () in
      (* bounded by the product of distinct counts *)
      let prod =
        List.fold_left
          (fun acc (_, c) -> Float.min (acc *. c.Rel_stats.distinct) s.Rel_stats.card)
          1.0 s.Rel_stats.cols
      in
      { s with Rel_stats.card = Float.min s.Rel_stats.card prod }
  | Op.Coalesce _ ->
      let s = arg () in
      (* coalescing can only shrink; 60 % heuristic as for aggregation *)
      { s with Rel_stats.card = Float.max 1.0 (0.6 *. s.Rel_stats.card) }
  | Op.Difference _ ->
      let (l, _), (r, _) = args2 () in
      {
        l with
        Rel_stats.card =
          Float.max 0.0 (l.Rel_stats.card -. (r.Rel_stats.card /. 2.0));
      }

(** Derive statistics for an operator tree: {!step} applied bottom-up. *)
let rec derive (e : env) (op : Op.t) : Rel_stats.t =
  step e op
    (List.map (fun a -> (derive e a, lazy (Op.schema a))) (Op.children op))
