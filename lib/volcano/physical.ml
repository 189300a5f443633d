(** Physical plan search (the optimizer's second phase, paper Section 2.1).

    For every memo class we find the cheapest physical plan satisfying a
    {e required property}: where the result must reside (DBMS or
    middleware) and which order it must have.  Each logical element admits
    one or more algorithms; an algorithm determines its own cost (via the
    cost formulas and the derived statistics), its output order, and the
    properties it requires of its inputs — e.g. `TAGGR^M` demands its
    argument middleware-resident and sorted on (grouping attributes, T1).

    Order bookkeeping implements the paper's rules T10/T11 physically: a
    sort whose input already has the needed order costs nothing
    ([Sort_passthrough]), and plans that sort where no order is required
    simply lose on cost. *)

open Tango_rel
open Tango_algebra
open Tango_stats
open Tango_cost

type algorithm =
  | Table_scan_d
  | Filter_d
  | Filter_m
  | Project_d
  | Project_m
  | Sort_d
  | Sort_m
  | Sort_passthrough  (** input already ordered — the physical T10/T11 *)
  | Join_d
  | Merge_join_m
  | Tjoin_d
  | Tjoin_m
  | Product_d
  | Taggr_d
  | Taggr_m
  | Dupelim_d
  | Dupelim_m
  | Coalesce_m
  | Difference_m
  | Transfer_m_algo
  | Transfer_d_algo
  | Scatter_gather_m
      (** partition-aware `T^M`: per-shard transfers merged by an ordered
          gather in the middleware *)

let algorithm_name = function
  | Table_scan_d -> "SCAN^D"
  | Filter_d -> "FILTER^D"
  | Filter_m -> "FILTER^M"
  | Project_d -> "PROJECT^D"
  | Project_m -> "PROJECT^M"
  | Sort_d -> "SORT^D"
  | Sort_m -> "SORT^M"
  | Sort_passthrough -> "SORT(noop)"
  | Join_d -> "JOIN^D"
  | Merge_join_m -> "MERGEJOIN^M"
  | Tjoin_d -> "TJOIN^D"
  | Tjoin_m -> "TJOIN^M"
  | Product_d -> "PRODUCT^D"
  | Taggr_d -> "TAGGR^D"
  | Taggr_m -> "TAGGR^M"
  | Dupelim_d -> "DUPELIM^D"
  | Dupelim_m -> "DUPELIM^M"
  | Coalesce_m -> "COALESCE^M"
  | Difference_m -> "DIFFERENCE^M"
  | Transfer_m_algo -> "TRANSFER^M"
  | Transfer_d_algo -> "TRANSFER^D"
  | Scatter_gather_m -> "SCATTER^M"

type plan = {
  algorithm : algorithm;
  op : Op.t;  (** logical operator with the chosen children substituted *)
  children : plan list;
  own_cost : float;  (** microseconds, this algorithm only *)
  total_cost : float;  (** microseconds, including children *)
  out_order : Order.t;
  location : Op.location;
  shards : string list;
      (** [Scatter_gather_m] only: names of the backends the transfer must
          hit; [[]] for every other algorithm *)
}

(** Required physical properties. *)
type req = { loc : Op.location; order : Order.t }

type t = {
  memo : Memo.t;
  factors : Factors.t;
  stats_env : Derive.env;
  partition : Partition.layout option;
      (** [Some] when the topology shards a table: transfers become
          partition-aware *)
  shard_factors : string -> Factors.t;
      (** per-backend cost factors, keyed by backend name *)
  cache : (req * plan option) list array;
      (** by class id: the plans found, by requirement *)
  in_progress : req list array;
      (** by class id: the requirements being planned *)
  stats_cache : Rel_stats.t option option array;
      (** by class id: its statistics, once derived *)
  components : int array Lazy.t;
      (** by class id: its strongly connected component in the class
          graph *)
  mutable considered : int;  (** algorithm instantiations examined *)
}

let c_considered = Tango_obs.Counter.make "volcano.plans_considered"

(* Tarjan's strongly connected components of the class graph, which has an
   edge from each class to every child class of its elements: [comp.(c)]
   names class [c]'s component. *)
let components (m : Memo.t) : int array =
  let n = 1 + List.fold_left max (-1) (Memo.classes m) in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = ref [] and next = ref 0 in
  let rec visit c =
    index.(c) <- !next;
    low.(c) <- !next;
    incr next;
    stack := c :: !stack;
    List.iter
      (fun n ->
        List.iter
          (fun k ->
            let k = Memo.find m k in
            if index.(k) < 0 then begin
              visit k;
              low.(c) <- min low.(c) low.(k)
            end
            else if comp.(k) < 0 then low.(c) <- min low.(c) index.(k))
          (Memo.children n))
      (Memo.elements m c);
    if low.(c) = index.(c) then begin
      let rec pop () =
        match !stack with
        | k :: rest ->
            stack := rest;
            comp.(k) <- c;
            if k <> c then pop ()
        | [] -> ()
      in
      pop ()
    end
  in
  List.iter (fun c -> if index.(c) < 0 then visit c) (Memo.classes m);
  comp

let create ?partition ?shard_factors ~memo ~factors ~stats_env () =
  let n = 1 + List.fold_left max (-1) (Memo.classes memo) in
  {
    memo;
    factors;
    stats_env;
    partition;
    shard_factors =
      (match shard_factors with Some f -> f | None -> fun _ -> factors);
    cache = Array.make n [];
    in_progress = Array.make n [];
    stats_cache = Array.make n None;
    components = lazy (components memo);
    considered = 0;
  }

(* Statistics of class [c] as derived over {!Memo.extract}'s tree, one
   {!Derive.step} per class.  Extract picks, along its path of classes being
   extracted, the first of {!Memo.preferred_elements} whose subtree does not
   lead back onto the path.  That choice can depend on the path only within
   the class's strongly connected component; a class entered from another
   component extracts as it does at top level.  So statistics are cached
   per class, keyed by component entry, and recomputed along the path
   inside a component.  Raises {!Memo.Cyclic} when every element is
   cyclic. *)
let rec entry_stats (p : t) (c : int) : Rel_stats.t option =
  match p.stats_cache.(c) with
  | Some s -> s
  | None ->
      let s = first_acyclic p [ c ] (Memo.preferred_elements p.memo c) in
      p.stats_cache.(c) <- Some s;
      s

and stats_along p path c =
  let c = Memo.find p.memo c in
  let comp = Lazy.force p.components in
  if comp.(c) <> comp.(List.hd path) then entry_stats p c
  else if List.mem c path then raise Memo.Cyclic
  else first_acyclic p (c :: path) (Memo.preferred_elements p.memo c)

and first_acyclic p path = function
  | [] -> raise Memo.Cyclic
  | n :: rest -> (
      let kids = Memo.children n in
      match List.map (stats_along p path) kids with
      | exception Memo.Cyclic -> first_acyclic p path rest
      | stats -> (
          (* a child whose derivation failed ([None]) fails this one *)
          try
            Some
              (Derive.step p.stats_env (Memo.top_op n)
                 (List.map2
                    (fun c s -> (Option.get s, lazy (Memo.schema_of p.memo c)))
                    kids stats))
          with _ -> None))

let class_stats (p : t) (c : int) : Rel_stats.t option =
  try entry_stats p (Memo.find p.memo c) with Memo.Cyclic -> None

let class_size p c =
  match class_stats p c with Some s -> Rel_stats.size s | None -> 1.0

let satisfies out_order required =
  Order.satisfies ~actual:out_order ~required

let better a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some pa, Some pb -> Some (if pa.total_cost <= pb.total_cost then pa else pb)

(* Map a required order through projection items onto input attribute
   names; None when some key is computed (not a plain column). *)
let map_order_through_items items (order : Order.t) : Order.t option =
  let mapped =
    List.map
      (fun k ->
        match
          Rules.find_item_by (fun (_, out) -> Some out) items k.Order.attr
        with
        | Some (Tango_sql.Ast.Col (q, c), _) ->
            let name = match q with None -> c | Some q -> q ^ "." ^ c in
            Some { k with Order.attr = name }
        | _ -> None)
      order
  in
  if List.for_all Option.is_some mapped then Some (List.map Option.get mapped)
  else None

(* Requirements are equal when their locations and orders are, attribute
   names compared exactly. *)
let same_req a b =
  a.loc = b.loc
  && List.equal
       (fun (x : Order.key) (y : Order.key) ->
         String.equal x.Order.attr y.Order.attr && x.Order.dir = y.Order.dir)
       a.order b.order

let rec best (p : t) (c : int) (r : req) : plan option =
  let c = Memo.find p.memo c in
  match List.find_opt (fun (r', _) -> same_req r r') p.cache.(c) with
  | Some (_, res) -> res
  | None ->
      if List.exists (same_req r) p.in_progress.(c) then None
        (* cyclic through transfer-cancelled classes: no finite plan here *)
      else begin
        p.in_progress.(c) <- r :: p.in_progress.(c);
        let result =
          List.fold_left
            (fun acc el -> better acc (plan_element p c r el))
            None (Memo.elements p.memo c)
        in
        p.in_progress.(c) <- List.tl p.in_progress.(c);
        p.cache.(c) <- (r, result) :: p.cache.(c);
        result
      end

and mk_plan_sharded p ~shards algorithm op children own out_order location =
  p.considered <- p.considered + 1;
  Tango_obs.Counter.incr c_considered;
  {
    algorithm;
    op;
    children;
    own_cost = own;
    total_cost = own +. List.fold_left (fun a ch -> a +. ch.total_cost) 0.0 children;
    out_order;
    location;
    shards;
  }

and mk_plan p algorithm op children own out_order location =
  mk_plan_sharded p ~shards:[] algorithm op children own out_order location

and plan_element (p : t) (c : int) (r : req) (el : Memo.node) : plan option =
  let f = p.factors in
  let out_size () = class_size p c in
  match el with
  | Memo.N_scan { table; alias; schema } ->
      if r.loc <> Op.Db || r.order <> [] then None
      else
        Some
          (mk_plan p Table_scan_d
             (Op.Scan { table; alias; schema })
             []
             (Formulas.scan_d f ~size:(out_size ()))
             [] Op.Db)
  | Memo.N_tm arg -> (
      if r.loc <> Op.Mw then None
      else
        match best p arg { loc = Op.Db; order = r.order } with
        | None -> None
        | Some child -> (
            let size = class_size p arg in
            match p.partition with
            | None ->
                Some
                  (mk_plan p Transfer_m_algo (Op.To_mw child.op) [ child ]
                     (Formulas.transfer_m f ~size)
                     child.out_order Op.Mw)
            | Some layout -> (
                match Partition.analyze layout child.op with
                | Partition.Unpartitioned ->
                    (* replicated inputs only: the primary has it all *)
                    Some
                      (mk_plan p Transfer_m_algo (Op.To_mw child.op) [ child ]
                         (Formulas.transfer_m f ~size)
                         child.out_order Op.Mw)
                | Partition.Unsafe _ ->
                    (* no correct DBMS-side execution over the shards —
                       the offending operator must move to the middleware *)
                    None
                | Partition.Scatter { shards; _ } ->
                    (* per-shard transfers (the estimated output splits
                       across them) plus the ordered gather merge *)
                    let ways = max 1 (List.length shards) in
                    let per = size /. float_of_int ways in
                    let ship =
                      List.fold_left
                        (fun acc s ->
                          acc
                          +. Formulas.transfer_m
                               (p.shard_factors s.Partition.shard_name)
                               ~size:per)
                        0.0 shards
                    in
                    let own = ship +. Formulas.gather_m f ~size ~ways in
                    Some
                      (mk_plan_sharded p
                         ~shards:
                           (List.map
                              (fun s -> s.Partition.shard_name)
                              shards)
                         Scatter_gather_m (Op.To_mw child.op) [ child ] own
                         child.out_order Op.Mw))))
  | Memo.N_td arg ->
      if r.loc <> Op.Db || r.order <> [] then None
      else
        Option.map
          (fun child ->
            let size = class_size p arg in
            let own =
              match p.partition with
              | None -> Formulas.transfer_d f ~size
              | Some layout ->
                  (* the temporary is replicated: one load per backend *)
                  List.fold_left
                    (fun acc s ->
                      acc
                      +. Formulas.transfer_d
                           (p.shard_factors s.Partition.shard_name)
                           ~size)
                    0.0 layout.Partition.shards
            in
            mk_plan p Transfer_d_algo (Op.To_db child.op) [ child ] own []
              Op.Db)
          (best p arg { loc = Op.Mw; order = [] })
  | Memo.N_select { pred; arg } -> (
      match r.loc with
      | Op.Db ->
          if r.order <> [] then None
          else
            Option.map
              (fun child ->
                mk_plan p Filter_d
                  (Op.Select { pred; arg = child.op })
                  [ child ]
                  (Formulas.select_d ~size:(class_size p arg))
                  [] Op.Db)
              (best p arg { loc = Op.Db; order = [] })
      | Op.Mw ->
          Option.map
            (fun child ->
              mk_plan p Filter_m
                (Op.Select { pred; arg = child.op })
                [ child ]
                (Formulas.filter_m f ~pred ~size:(class_size p arg))
                child.out_order Op.Mw)
            (best p arg { loc = Op.Mw; order = r.order }))
  | Memo.N_project { items; arg } -> (
      match r.loc with
      | Op.Db ->
          if r.order <> [] then None
          else
            Option.map
              (fun child ->
                mk_plan p Project_d
                  (Op.Project { items; arg = child.op })
                  [ child ]
                  (Formulas.project_d ~size:(class_size p arg))
                  [] Op.Db)
              (best p arg { loc = Op.Db; order = [] })
      | Op.Mw -> (
          match map_order_through_items items r.order with
          | None -> None
          | Some child_order ->
              Option.map
                (fun child ->
                  mk_plan p Project_m
                    (Op.Project { items; arg = child.op })
                    [ child ]
                    (Formulas.project_m f ~size:(class_size p arg))
                    r.order Op.Mw)
                (best p arg { loc = Op.Mw; order = child_order })))
  | Memo.N_sort { order; arg } ->
      if not (satisfies order r.order) then None
      else begin
        let loc = r.loc in
        (* option A: input already ordered -> free *)
        let passthrough =
          Option.map
            (fun child ->
              mk_plan p Sort_passthrough
                (Op.Sort { order; arg = child.op })
                [ child ] 0.0 order loc)
            (best p arg { loc; order })
        in
        (* option B: sort here *)
        let sorted =
          Option.map
            (fun child ->
              let size = class_size p arg in
              let own =
                match loc with
                | Op.Db -> Formulas.sort_d f ~size
                | Op.Mw -> Formulas.sort_m f ~size
              in
              mk_plan p
                (match loc with Op.Db -> Sort_d | Op.Mw -> Sort_m)
                (Op.Sort { order; arg = child.op })
                [ child ] own order loc)
            (best p arg { loc; order = [] })
        in
        better passthrough sorted
      end
  | Memo.N_product { left; right } ->
      if r.loc <> Op.Db || r.order <> [] then None
      else
        let pl = best p left { loc = Op.Db; order = [] } in
        let pr = best p right { loc = Op.Db; order = [] } in
        (match (pl, pr) with
        | Some cl, Some cr ->
            Some
              (mk_plan p Product_d
                 (Op.Product { left = cl.op; right = cr.op })
                 [ cl; cr ]
                 (Formulas.product_d f ~out_size:(out_size ()))
                 [] Op.Db)
        | _ -> None)
  | Memo.N_join { pred; left; right } -> (
      match r.loc with
      | Op.Db ->
          if r.order <> [] then None
          else
            let pl = best p left { loc = Op.Db; order = [] } in
            let pr = best p right { loc = Op.Db; order = [] } in
            (match (pl, pr) with
            | Some cl, Some cr ->
                Some
                  (mk_plan p Join_d
                     (Op.Join { pred; left = cl.op; right = cr.op })
                     [ cl; cr ]
                     (db_join_cost p ~pred ~left ~right ~out_size:(out_size ()))
                     [] Op.Db)
            | _ -> None)
      | Op.Mw -> plan_mw_merge_join p c r ~temporal:false pred left right)
  | Memo.N_tjoin { pred; left; right } -> (
      match r.loc with
      | Op.Db ->
          if r.order <> [] then None
          else
            let pl = best p left { loc = Op.Db; order = [] } in
            let pr = best p right { loc = Op.Db; order = [] } in
            (match (pl, pr) with
            | Some cl, Some cr ->
                Some
                  (mk_plan p Tjoin_d
                     (Op.Temporal_join { pred; left = cl.op; right = cr.op })
                     [ cl; cr ]
                     (db_join_cost p ~pred ~left ~right ~out_size:(out_size ()))
                     [] Op.Db)
            | _ -> None)
      | Op.Mw -> plan_mw_merge_join p c r ~temporal:true pred left right)
  | Memo.N_taggr { group_by; aggs; arg } -> (
      let out_order = Tango_xxl.Ordering.taggr_output ~group_by in
      if not (satisfies out_order r.order) then None
      else
        match r.loc with
        | Op.Db ->
            Option.map
              (fun child ->
                mk_plan p Taggr_d
                  (Op.Temporal_aggregate { group_by; aggs; arg = child.op })
                  [ child ]
                  (Formulas.taggr_d f ~in_size:(class_size p arg)
                     ~out_size:(out_size ()))
                  out_order Op.Db)
              (best p arg { loc = Op.Db; order = [] })
        | Op.Mw -> (
            match Memo.schema_of p.memo arg with
            | exception _ -> None
            | arg_schema ->
                let needed = Rules.taggr_order arg_schema group_by in
                Option.map
                  (fun child ->
                    mk_plan p Taggr_m
                      (Op.Temporal_aggregate { group_by; aggs; arg = child.op })
                      [ child ]
                      (Formulas.taggr_m f ~in_size:(class_size p arg)
                         ~out_size:(out_size ()))
                      out_order Op.Mw)
                  (best p arg { loc = Op.Mw; order = needed })))
  | Memo.N_dupelim arg -> (
      match r.loc with
      | Op.Db ->
          if r.order <> [] then None
          else
            Option.map
              (fun child ->
                mk_plan p Dupelim_d (Op.Dup_elim child.op) [ child ]
                  (Formulas.sort_d f ~size:(class_size p arg))
                  [] Op.Db)
              (best p arg { loc = Op.Db; order = [] })
      | Op.Mw -> (
          match Memo.schema_of p.memo arg with
          | exception _ -> None
          | s ->
              let order = Tango_xxl.Ordering.dup_elim_input s in
              if not (satisfies order r.order) then None
              else
                Option.map
                  (fun child ->
                    mk_plan p Dupelim_m (Op.Dup_elim child.op) [ child ]
                      (Formulas.dup_elim_m f ~size:(class_size p arg))
                      order Op.Mw)
                  (best p arg { loc = Op.Mw; order })))
  | Memo.N_coalesce arg -> (
      if r.loc <> Op.Mw then None
      else
        match Memo.schema_of p.memo arg with
        | exception _ -> None
        | s ->
            let order = Tango_xxl.Ordering.coalesce_input s in
            if not (satisfies order r.order) then None
            else
              Option.map
                (fun child ->
                  mk_plan p Coalesce_m (Op.Coalesce child.op) [ child ]
                    (Formulas.coalesce_m f ~size:(class_size p arg))
                    order Op.Mw)
                (best p arg { loc = Op.Mw; order }))
  | Memo.N_difference { left; right } ->
      if r.loc <> Op.Mw then None
      else
        let pl = best p left { loc = Op.Mw; order = r.order } in
        let pr = best p right { loc = Op.Mw; order = [] } in
        (match (pl, pr) with
        | Some cl, Some cr ->
            Some
              (mk_plan p Difference_m
                 (Op.Difference { left = cl.op; right = cr.op })
                 [ cl; cr ]
                 (Formulas.difference_m f
                    ~left_size:(class_size p left)
                    ~right_size:(class_size p right))
                 cl.out_order Op.Mw)
        | _ -> None)

(* Generic DBMS join cost; when one side exposes an index on its join
   attribute (per the catalog statistics), the cheaper index-nested-loop
   formula applies — the DBMS will pick that access path. *)
and db_join_cost p ~pred ~left ~right ~out_size =
  let f = p.factors in
  let left_size = class_size p left and right_size = class_size p right in
  let generic = Formulas.join_d f ~left_size ~right_size ~out_size in
  match
    (Memo.schema_of p.memo left, Memo.schema_of p.memo right,
     class_stats p left, class_stats p right)
  with
  | exception _ -> generic
  | sl, sr, Some stl, Some str -> (
      match Rules.equi_pair sl sr pred with
      | None -> generic
      | Some (ja1, ja2) ->
          let candidates =
            (if Tango_stats.Rel_stats.indexed_on str ja2 then
               [ Formulas.index_join_d f ~outer_size:left_size ~out_size ]
             else [])
            @
            if Tango_stats.Rel_stats.indexed_on stl ja1 then
              [ Formulas.index_join_d f ~outer_size:right_size ~out_size ]
            else []
          in
          List.fold_left Float.min generic candidates)
  | _ -> generic

and plan_mw_merge_join p c r ~temporal pred left right =
  match (Memo.schema_of p.memo left, Memo.schema_of p.memo right) with
  | exception _ -> None
  | sl, sr -> (
      match Rules.equi_pair sl sr pred with
      | None -> None
      | Some (ja1, ja2) ->
          let out_order =
            (* ordered by the left join attribute, if it survives *)
            match Memo.schema_of p.memo c with
            | exception _ -> []
            | out_s ->
                Tango_xxl.Ordering.merge_join_output ~temporal out_s
                  ~left_key:ja1
          in
          if not (satisfies out_order r.order) then None
          else
            let pl =
              best p left
                { loc = Op.Mw; order = Tango_xxl.Ordering.merge_join_input ja1 }
            in
            let pr =
              best p right
                { loc = Op.Mw; order = Tango_xxl.Ordering.merge_join_input ja2 }
            in
            (match (pl, pr) with
            | Some cl, Some cr ->
                let left_size = class_size p left
                and right_size = class_size p right
                and out_size = class_size p c in
                let own, algo, op =
                  if temporal then
                    ( Formulas.temporal_join_m p.factors ~left_size ~right_size
                        ~out_size,
                      Tjoin_m,
                      Op.Temporal_join { pred; left = cl.op; right = cr.op } )
                  else
                    ( Formulas.merge_join_m p.factors ~left_size ~right_size
                        ~out_size,
                      Merge_join_m,
                      Op.Join { pred; left = cl.op; right = cr.op } )
                in
                Some (mk_plan p algo op [ cl; cr ] own out_order Op.Mw)
            | _ -> None))

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                      *)
(* ------------------------------------------------------------------ *)

let rec pp ?(indent = 0) ppf (plan : plan) =
  Fmt.pf ppf "%s%s%s  [%s, cost %.0fus%s]@."
    (String.make indent ' ')
    (algorithm_name plan.algorithm)
    (if plan.shards = [] then ""
     else "{" ^ String.concat "," plan.shards ^ "}")
    (match plan.location with Op.Db -> "DB" | Op.Mw -> "MW")
    plan.total_cost
    (if plan.out_order = [] then ""
     else " order " ^ Order.to_string plan.out_order);
  List.iter (pp ~indent:(indent + 2) ppf) plan.children

let to_string plan = Fmt.str "%a" (pp ~indent:0) plan

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)
(* ------------------------------------------------------------------ *)

(* Canonical plan identity for the profiling feedback store and the
   regression sentinel.  Two normalizations make the fingerprint stable
   under plan-irrelevant differences:

   - {e alias insensitivity}: table aliases, their qualified column
     references ("A.K") and the alias-derived output names the SQL
     generator produces ("A__K") are reduced to the column's base name, so
     re-aliasing a scan does not change the fingerprint;
   - {e literal stripping}: constants in predicates become a "?"
     placeholder (pg_stat_statements-style), so the same query shape over
     different windows accumulates statistics under one key. *)

module Ast = Tango_sql.Ast

let base_name (name : string) : string =
  let after_dot =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  (* alias-derived output names embed the alias as "A__K" *)
  let rec strip s =
    match String.index_opt s '_' with
    | Some i when i + 1 < String.length s && s.[i + 1] = '_' ->
        strip (String.sub s (i + 2) (String.length s - i - 2))
    | _ -> s
  in
  strip after_dot

let rec canon_expr (e : Ast.expr) : string =
  match e with
  | Ast.Lit _ | Ast.Param _ -> "?"
  | Ast.Col (_, c) -> base_name c
  | Ast.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (canon_expr a)
        (Tango_sql.Printer.binop_name op)
        (canon_expr b)
  | Ast.Not a -> Printf.sprintf "not(%s)" (canon_expr a)
  | Ast.Is_null a -> Printf.sprintf "isnull(%s)" (canon_expr a)
  | Ast.Is_not_null a -> Printf.sprintf "notnull(%s)" (canon_expr a)
  | Ast.Between (a, b, c) ->
      Printf.sprintf "between(%s,%s,%s)" (canon_expr a) (canon_expr b)
        (canon_expr c)
  | Ast.Greatest es ->
      Printf.sprintf "greatest(%s)" (String.concat "," (List.map canon_expr es))
  | Ast.Least es ->
      Printf.sprintf "least(%s)" (String.concat "," (List.map canon_expr es))
  | Ast.Agg (fn, a) ->
      Printf.sprintf "%s(%s)" (Ast.aggfun_name fn)
        (match a with Some a -> canon_expr a | None -> "*")
  | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ -> "<subquery>"

let canon_order (o : Order.t) : string =
  String.concat ","
    (List.map
       (fun (k : Order.key) ->
         base_name k.Order.attr
         ^ match k.Order.dir with Order.Asc -> "+" | Order.Desc -> "-")
       o)

let rec canon_op (op : Op.t) : string =
  let kids op = String.concat "," (List.map canon_op (Op.children op)) in
  match op with
  | Op.Scan { table; _ } -> Printf.sprintf "scan:%s" table
  | Op.Select { pred; _ } ->
      Printf.sprintf "select[%s](%s)" (canon_expr pred) (kids op)
  | Op.Project { items; _ } ->
      Printf.sprintf "project[%s](%s)"
        (String.concat "," (List.map (fun (e, _) -> canon_expr e) items))
        (kids op)
  | Op.Sort { order; _ } ->
      Printf.sprintf "sort[%s](%s)" (canon_order order) (kids op)
  | Op.Product _ -> Printf.sprintf "product(%s)" (kids op)
  | Op.Join { pred; _ } ->
      Printf.sprintf "join[%s](%s)" (canon_expr pred) (kids op)
  | Op.Temporal_join { pred; _ } ->
      Printf.sprintf "tjoin[%s](%s)" (canon_expr pred) (kids op)
  | Op.Temporal_aggregate { group_by; aggs; _ } ->
      Printf.sprintf "taggr[%s;%s](%s)"
        (String.concat "," (List.map base_name group_by))
        (String.concat ","
           (List.map
              (fun (a : Op.agg) ->
                Ast.aggfun_name a.Op.fn
                ^ "("
                ^ (match a.Op.arg with Some c -> base_name c | None -> "*")
                ^ ")")
              aggs))
        (kids op)
  | Op.Dup_elim _ -> Printf.sprintf "dupelim(%s)" (kids op)
  | Op.Coalesce _ -> Printf.sprintf "coalesce(%s)" (kids op)
  | Op.Difference _ -> Printf.sprintf "difference(%s)" (kids op)
  | Op.To_mw _ -> Printf.sprintf "to_mw(%s)" (kids op)
  | Op.To_db _ -> Printf.sprintf "to_db(%s)" (kids op)

(* FNV-1a over the canonical string, rendered as 16 hex digits. *)
let digest (s : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let op_fingerprint (op : Op.t) : string = digest (canon_op op)

(** One-line summary of where the plan's algorithms run. *)
let rec signature (plan : plan) : string =
  match plan.children with
  | [] -> algorithm_name plan.algorithm
  | cs ->
      algorithm_name plan.algorithm
      ^ "("
      ^ String.concat ", " (List.map signature cs)
      ^ ")"

let fingerprint (plan : plan) : string =
  digest (signature plan ^ "|" ^ canon_op plan.op)

let rec collect_tds (plan : plan) : plan list =
  match plan.algorithm with
  | Transfer_d_algo -> [ plan ]
  | _ -> List.concat_map collect_tds plan.children

(* ------------------------------------------------------------------ *)
(* Partition-aware refinement and checking                              *)
(* ------------------------------------------------------------------ *)

(* Middleware-side predicate knowledge flows DOWN through contexts that
   keep the scatter's output stream intact tuple-for-tuple: filters
   (harvesting their period predicates) and sorts.  Any other operator
   resets the interval to ⊤.  Harvested intervals prune a scatter's shard
   list only when the partition column is traceable to the scatter output
   (see {!Partition.analyze}), where a base-name reference in a predicate
   above can only mean the partition column. *)

let mw_interval layout (plan : plan) : Partition.interval =
  match (plan.algorithm, plan.op) with
  | Filter_m, Op.Select { pred; _ } ->
      Partition.interval_of_pred
        ~column:(Schema.base_name layout.Partition.column)
        pred
  | _ -> Partition.top

let child_interval layout interval (plan : plan) : Partition.interval =
  match plan.algorithm with
  | Filter_m -> Partition.inter interval (mw_interval layout plan)
  | Sort_m | Sort_passthrough -> interval
  | _ -> Partition.top

let scatter_verdict layout (plan : plan) : Partition.verdict option =
  match plan.children with
  | [ child ] -> Some (Partition.analyze layout child.op)
  | _ -> None

(** Drop shards a scatter provably cannot need, using the period
    predicates the middleware applies above it.  Costs are left as
    estimated (pruning only makes execution cheaper). *)
let prune_scatter (layout : Partition.layout) (plan : plan) : plan =
  let rec go interval plan =
    let ci = child_interval layout interval plan in
    let children = List.map (go ci) plan.children in
    let plan = { plan with children } in
    match plan.algorithm with
    | Scatter_gather_m -> (
        match scatter_verdict layout plan with
        | Some (Partition.Scatter { shards; traceable = true }) ->
            {
              plan with
              shards =
                List.map
                  (fun s -> s.Partition.shard_name)
                  (Partition.restrict shards interval);
            }
        | _ -> plan)
    | _ -> plan
  in
  go Partition.top plan

(** Close a plan template over bound parameter values: every [Ast.Param n]
    in every operator's expressions becomes [Lit values.(n-1)].  Costs,
    algorithms and orders are untouched — instantiation must not re-plan;
    re-run {!prune_scatter} afterwards to restore per-binding shard
    pruning (templates are planned with parameters unresolved, so their
    scatter lists are unpruned).  Raises {!Op.Ill_formed} when a
    parameter has no bound value. *)
let instantiate (values : Value.t array) (plan : plan) : plan =
  let subst =
    Ast.map_params (fun n ->
        if n >= 1 && n <= Array.length values then Ast.Lit values.(n - 1)
        else
          Op.ill_formed "parameter $%d has no bound value (%d given)" n
            (Array.length values))
  in
  (* bottom-up, each operator over its children's rebuilt operators *)
  let rec go p =
    let children = List.map go p.children in
    let op =
      Op.with_children (Op.map_own_exprs subst p.op)
        (List.map (fun ch -> ch.op) children)
    in
    { p with op; children }
  in
  go plan

(** Partition-safety violations in a physical plan: transfers that would
    read a single shard's slice of partitioned data, scatters over
    non-distributable subtrees, and scatters whose shard list misses a
    shard the predicates cannot exclude (data loss).  Returns
    [(path, message)] pairs; empty means the plan is partition-correct. *)
let scatter_violations (layout : Partition.layout) (plan : plan) :
    (string * string) list =
  let errs = ref [] in
  let rec walk interval path plan =
    let here = path ^ "/" ^ algorithm_name plan.algorithm in
    let err msg = errs := (here, msg) :: !errs in
    (match plan.algorithm with
    | Transfer_m_algo -> (
        match scatter_verdict layout plan with
        | Some (Partition.Scatter _) ->
            err
              "single-backend TRANSFER^M over the partitioned table reads \
               one shard's slice only"
        | Some (Partition.Unsafe msg) ->
            err ("TRANSFER^M over a non-distributable subtree: " ^ msg)
        | Some Partition.Unpartitioned | None -> ())
    | Scatter_gather_m -> (
        match scatter_verdict layout plan with
        | Some (Partition.Unsafe msg) ->
            err ("SCATTER^M over a non-distributable subtree: " ^ msg)
        | Some Partition.Unpartitioned ->
            err "SCATTER^M over an unpartitioned subtree"
        | Some (Partition.Scatter { shards; traceable }) ->
            let required =
              if traceable then Partition.restrict shards interval else shards
            in
            List.iter
              (fun s ->
                if not (List.mem s.Partition.shard_name plan.shards) then
                  err
                    (Printf.sprintf
                       "shard %s can hold matching tuples but is not \
                        transferred (data loss)"
                       s.Partition.shard_name))
              required;
            let known =
              List.map (fun s -> s.Partition.shard_name) layout.Partition.shards
            in
            List.iter
              (fun n ->
                if not (List.mem n known) then err ("unknown shard " ^ n))
              plan.shards
        | None -> err "SCATTER^M without a DBMS child")
    | _ -> ());
    let ci = child_interval layout interval plan in
    List.iter (walk ci here) plan.children
  in
  walk Partition.top "" plan;
  List.rev !errs
