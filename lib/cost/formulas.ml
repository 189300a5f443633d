(** The cost formulas (paper Figure 6, plus the generic DBMS formulas of
    [20]).  All take and return microseconds; [size] arguments are bytes
    ([Rel_stats.size]).

    Conventions from the paper: initialization costs are zero; output
    formation is free for sorting, selection, and projection; selection and
    projection in the DBMS are free (folded into whatever SQL runs them). *)

open Tango_sql

let log2 x = if x <= 2.0 then 1.0 else Float.log x /. Float.log 2.0

(* Merge levels of an external sort over [size] bytes. *)
let sort_levels ~size =
  let pages = Float.max 2.0 (size /. 8192.0) in
  log2 pages

(* --- transfers --- *)

let transfer_m (f : Factors.t) ~size = f.p_tm *. size
let transfer_d (f : Factors.t) ~size = f.p_td *. size

(* Gathering k per-shard sorted streams is one merge level of a k-way
   external sort: log2(k) comparisons per byte at the sort-merge rate. *)
let gather_m (f : Factors.t) ~size ~ways =
  if ways <= 1 then 0.0 else f.p_sortm *. size *. log2 (float_of_int ways)

(* --- middleware algorithms --- *)

(** Selection-condition coefficient f(P): the number of atomic terms. *)
let rec predicate_coefficient (p : Ast.expr) : float =
  match p with
  | Ast.Binop ((Ast.And | Ast.Or), a, b) ->
      predicate_coefficient a +. predicate_coefficient b
  | Ast.Not a -> predicate_coefficient a
  | _ -> 1.0

let filter_m (f : Factors.t) ~pred ~size =
  f.p_sem *. predicate_coefficient pred *. size

let project_m (f : Factors.t) ~size = f.p_pm *. size

let sort_m (f : Factors.t) ~size = f.p_sortm *. size *. sort_levels ~size

let merge_join_m (f : Factors.t) ~left_size ~right_size ~out_size =
  (f.p_mjm1 *. (left_size +. right_size)) +. (f.p_mjm2 *. out_size)

let temporal_join_m (f : Factors.t) ~left_size ~right_size ~out_size =
  (f.p_tjm1 *. (left_size +. right_size)) +. (f.p_tjm2 *. out_size)

(** `TAGGR^M` (Figure 6): the internal sort of the second argument copy plus
    linear terms in input and output size.  The *external* argument sort is
    a separate plan operator and is costed where it runs. *)
let taggr_m (f : Factors.t) ~in_size ~out_size =
  sort_m f ~size:in_size +. (f.p_taggm1 *. in_size) +. (f.p_taggm2 *. out_size)

let dup_elim_m (f : Factors.t) ~size = f.p_dupm *. size
let coalesce_m (f : Factors.t) ~size = f.p_coalm *. size

let difference_m (f : Factors.t) ~left_size ~right_size =
  f.p_diffm *. (left_size +. right_size)

(* --- generic DBMS algorithms --- *)

let scan_d (f : Factors.t) ~size = f.p_scan *. size
let select_d ~size = ignore size; 0.0
let project_d ~size = ignore size; 0.0

let sort_d (f : Factors.t) ~size = f.p_sortd *. size *. sort_levels ~size

(** Generic DBMS join: the middleware "does not know which join algorithm
    the DBMS will use", so one formula covers them all. *)
let join_d (f : Factors.t) ~left_size ~right_size ~out_size =
  (f.p_joind1 *. (left_size +. right_size)) +. (f.p_joind2 *. out_size)

(** DBMS join when one side has a usable index on the join attribute: the
    outer side is scanned and the inner side probed, so the inner's size
    drops out of the formula (catalog "index availability" put to use). *)
let index_join_d (f : Factors.t) ~outer_size ~out_size =
  (f.p_joind1 *. outer_size) +. (f.p_isc *. out_size)

let product_d (f : Factors.t) ~out_size = f.p_cartd *. out_size

(** DBMS temporal aggregation — the simplified linear model of Figure 6.
    The real SQL evaluation is quadratic, which is exactly why calibrating
    this line at moderate sizes yields a very large [p_taggd1] and the
    optimizer learns to avoid `TAGGR^D` except on tiny inputs. *)
let taggr_d (f : Factors.t) ~in_size ~out_size =
  (f.p_taggd1 *. in_size) +. (f.p_taggd2 *. out_size)
