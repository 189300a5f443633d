(** Transformation rules and heuristics (paper Section 4).

    Rules operate on memo elements and either add equivalent elements to the
    same class or merge classes.  Implemented rules:

    - {b Group 1} (move beneficial operations to the middleware): T1
      (temporal aggregation), T2 (join), T3 (temporal join) — each wraps the
      operation in [T^M]/[T^D] and inserts the argument sorts its middleware
      algorithm needs; T4–T6 move selection/projection/sorting above [T^M].
    - {b Group 2} (eliminate redundant operations): T7/T8 (transfer pairs
      cancel — class merges), T9 (identity projection), T12 (subsumed
      sorts).  T10/T11 (sort elimination by order properties) are realized
      during physical planning, where output orders are tracked exactly: a
      sort whose input already satisfies its order costs nothing.
    - {b Equivalences}: E1 (σ/π), E2 (commutativity of ×, ⋈, ⋈ᵀ — modulo a
      column-reordering projection, since our relations are lists of
      positional tuples), E3 (associativity of ×), E4 (sort/σ, middleware
      only), E5 (sort/π, middleware only).
    - {b Group 3} (combine operations, from [20]): C1 merges adjacent
      selections, C2 composes adjacent projections.
    - {b Group 4} (reduce arguments of expensive operations, from [20]): R1
      pushes side-resolvable selection conjuncts below ⋈/⋈ᵀ/×, R2 pushes
      group-attribute conjuncts below ξᵀ, R3 seeds both arguments of a
      temporal join with the enclosing selection's time window (overlap
      semijoin reduction). *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Memo

(* ---------- helpers ---------- *)

let col_name = function
  | Ast.Col (None, c) -> Some c
  | Ast.Col (Some q, c) -> Some (q ^ "." ^ c)
  | _ -> None

let covers schema e = Scalar.covers schema e

(* Equi-join attribute pair (left attr, right attr) resolvable on the given
   sides. *)
let equi_pair sl sr pred =
  List.find_map
    (fun c ->
      match c with
      | Ast.Binop (Ast.Eq, a, b) -> (
          match (col_name a, col_name b) with
          | Some ca, Some cb ->
              if Schema.mem sl ca && Schema.mem sr cb then Some (ca, cb)
              else if Schema.mem sl cb && Schema.mem sr ca then Some (cb, ca)
              else None
          | _ -> None)
      | _ -> None)
    (Ast.conjuncts pred)

(* The (G1..Gn, T1) sort order TAGGR^M needs below itself
   (declared centrally in {!Tango_xxl.Ordering}). *)
let taggr_order (arg_schema : Schema.t) group_by =
  Tango_xxl.Ordering.taggr_input arg_schema ~group_by

(* Identity projection items over a schema (preserving exact names). *)
let identity_items (s : Schema.t) =
  List.map
    (fun (a : Schema.attribute) -> (Ast.Col (None, a.Schema.name), a.Schema.name))
    (Schema.attributes s)

(* A class's stored schema; None when ill-formed. *)
let try_schema m c = Result.to_option (Memo.props m c).schema

(* Whether a class's stored location is [l] (false when ill-formed). *)
let located m c (l : Op.location) =
  match ((Memo.props m c).location, l) with
  | Ok Op.Db, Op.Db | Ok Op.Mw, Op.Mw -> true
  | _ -> false

(* Find the item whose key (computed by [key_of]) names [name]: an exact
   match wins; otherwise the unique item whose key has [name]'s base name.
   Ambiguity yields None.  Unlike Schema.index, the fallback also applies
   to a qualified [name]: "A.PosID" finds a unique "B.PosID" (well-formed
   classes never ask for that).  Name_index resolves the same way in
   constant time. *)
let find_item_by key_of items name =
  let exact =
    List.find_opt
      (fun it -> match key_of it with Some k -> String.equal k name | None -> false)
      items
  in
  match exact with
  | Some it -> Some it
  | None -> (
      let base = Schema.base_name name in
      match
        List.filter
          (fun it ->
            match key_of it with
            | Some k -> String.equal (Schema.base_name k) base
            | None -> false)
          items
      with
      | [ it ] -> Some it
      | _ -> None)

(* Substitute predicate columns through projection items, [find] resolving
   a column name to its item: a column matching an item's output name
   becomes the item's expression.  None if any column is not an item
   output. *)
let subst_with find (e : Ast.expr) : Ast.expr option =
  try
    Some
      (Scalar.map_cols
         (fun q c ->
           let name = match q with None -> c | Some q -> q ^ "." ^ c in
           match find name with Some (def, _) -> def | None -> raise Exit)
         e)
  with Exit | Scalar.Unsupported _ -> None

let subst_through_items items =
  subst_with (find_item_by (fun (_, out) -> Some out) items)

(* Rewrite predicate columns to item *output* names when the item expression
   is exactly that column. None if some column isn't exposed. *)
let rewrite_to_outputs items (e : Ast.expr) : Ast.expr option =
  try
    Some
      (Scalar.map_cols
         (fun q c ->
           let name = match q with None -> c | Some q -> q ^ "." ^ c in
           match find_item_by (fun (def, _) -> col_name def) items name with
           | Some (_, out) -> Ast.Col (None, out)
           | None -> raise Exit)
         e)
  with Exit | Scalar.Unsupported _ -> None

(* ---------- the rules ---------- *)

type rule = { name : string; apply : Memo.t -> int -> Memo.node -> bool }

(* T1: move temporal aggregation to the middleware. *)
let t1 =
  {
    name = "T1-taggr-to-mw";
    apply =
      (fun m c n ->
        match n with
        | N_taggr { group_by; aggs; arg } when located m arg Op.Db -> (
            match try_schema m arg with
            | None -> false
            | Some s ->
                let sort_c =
                  Memo.insert m (N_sort { order = taggr_order s group_by; arg })
                in
                let tm_c = Memo.insert m (N_tm sort_c) in
                let ag_c =
                  Memo.insert m (N_taggr { group_by; aggs; arg = tm_c })
                in
                Memo.add_to_class m c (N_td ag_c))
        | _ -> false);
  }

(* T2/T3: move (temporal) join to the middleware via sorted transfers. *)
let join_to_mw ~temporal name =
  {
    name;
    apply =
      (fun m c n ->
        let matches =
          match (n, temporal) with
          | N_join { pred; left; right }, false -> Some (pred, left, right)
          | N_tjoin { pred; left; right }, true -> Some (pred, left, right)
          | _ -> None
        in
        match matches with
        | Some (pred, left, right)
          when located m left Op.Db && located m right Op.Db -> (
            match (try_schema m left, try_schema m right) with
            | Some sl, Some sr -> (
                match equi_pair sl sr pred with
                | None -> false
                | Some (ja1, ja2) ->
                    let sorted_tm key arg =
                      Memo.insert m
                        (N_tm
                           (Memo.insert m
                              (N_sort
                                 {
                                   order = Tango_xxl.Ordering.merge_join_input key;
                                   arg;
                                 })))
                    in
                    let tl = sorted_tm ja1 left in
                    let tr = sorted_tm ja2 right in
                    let j =
                      if temporal then
                        Memo.insert m (N_tjoin { pred; left = tl; right = tr })
                      else Memo.insert m (N_join { pred; left = tl; right = tr })
                    in
                    Memo.add_to_class m c (N_td j))
            | _ -> false)
        | _ -> false);
  }

let t2 = join_to_mw ~temporal:false "T2-join-to-mw"
let t3 = join_to_mw ~temporal:true "T3-tjoin-to-mw"

(* T1-style moves for the "additional algorithms" of Section 3.1: duplicate
   elimination and coalescing.  Both middleware algorithms need sorted
   input; coalescing has no DBMS implementation at all, so this rule is the
   only way a DBMS-located coalesce becomes executable. *)
let unary_to_mw name matches rebuild order_of =
  {
    name;
    apply =
      (fun m c n ->
        match matches n with
        | Some arg when located m arg Op.Db -> (
            match try_schema m arg with
            | None -> false
            | Some s ->
                let sort_c =
                  Memo.insert m (N_sort { order = order_of s; arg })
                in
                let tm_c = Memo.insert m (N_tm sort_c) in
                Memo.add_to_class m c (N_td (Memo.insert m (rebuild tm_c))))
        | _ -> false);
  }

let t_dupelim =
  unary_to_mw "T1b-dupelim-to-mw"
    (function N_dupelim a -> Some a | _ -> None)
    (fun arg -> N_dupelim arg)
    Tango_xxl.Ordering.dup_elim_input

(* Difference has no DBMS implementation either; move it wholesale. *)
let t_difference =
  {
    name = "T1d-difference-to-mw";
    apply =
      (fun m c n ->
        match n with
        | N_difference { left; right }
          when located m left Op.Db && located m right Op.Db ->
            let tl = Memo.insert m (N_tm left) in
            let tr = Memo.insert m (N_tm right) in
            Memo.add_to_class m c
              (N_td (Memo.insert m (N_difference { left = tl; right = tr })))
        | _ -> false);
  }

let t_coalesce =
  unary_to_mw "T1c-coalesce-to-mw"
    (function N_coalesce a -> Some a | _ -> None)
    (fun arg -> N_coalesce arg)
    Tango_xxl.Ordering.coalesce_input

(* T4/T5/T6: pull σ/π/sort above T^M. *)
let pull_above_tm name pick =
  {
    name;
    apply =
      (fun m c n ->
        match n with
        | N_tm arg ->
            List.fold_left
              (fun changed el ->
                match pick m el with
                | Some rebuild ->
                    let inner_tm inner = Memo.insert m (N_tm inner) in
                    Memo.add_to_class m c (rebuild inner_tm) || changed
                | None -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

let t4 =
  pull_above_tm "T4-select-above-tm" (fun _ el ->
      match el with
      | N_select { pred; arg } ->
          Some (fun tm -> N_select { pred; arg = tm arg })
      | _ -> None)

let t5 =
  pull_above_tm "T5-project-above-tm" (fun _ el ->
      match el with
      | N_project { items; arg } ->
          Some (fun tm -> N_project { items; arg = tm arg })
      | _ -> None)

let t6 =
  pull_above_tm "T6-sort-above-tm" (fun _ el ->
      match el with
      | N_sort { order; arg } -> Some (fun tm -> N_sort { order; arg = tm arg })
      | _ -> None)

(* T7/T8: cancel transfer pairs (class merges). *)
let cancel_transfers name outer inner_match =
  {
    name;
    apply =
      (fun m c n ->
        match outer n with
        | Some arg ->
            List.fold_left
              (fun changed el ->
                match inner_match el with
                | Some r when Memo.find m r <> Memo.find m c ->
                    ignore (Memo.union m c r);
                    true
                | _ -> changed)
              false (Memo.elements m arg)
        | None -> false);
  }

let t7 =
  cancel_transfers "T7-tm-td-cancel"
    (function N_tm a -> Some a | _ -> None)
    (function N_td r -> Some r | _ -> None)

let t8 =
  cancel_transfers "T8-td-tm-cancel"
    (function N_td a -> Some a | _ -> None)
    (function N_tm r -> Some r | _ -> None)

(* T9: identity projection vanishes. *)
let t9 =
  {
    name = "T9-identity-project";
    apply =
      (fun m c n ->
        match n with
        | N_project { items; arg } -> (
            match try_schema m arg with
            | Some s
              when List.length items = Schema.arity s
                   && List.for_all2
                        (fun (e, out) (a : Schema.attribute) ->
                          String.equal out a.Schema.name
                          &&
                          match col_name e with
                          | Some cn -> String.equal cn a.Schema.name
                          | None -> false)
                        items
                        (Schema.attributes s) ->
                if Memo.find m arg <> Memo.find m c then begin
                  ignore (Memo.union m c arg);
                  true
                end
                else false
            | _ -> false)
        | _ -> false);
  }

(* T12: outer sort subsumes an inner sort that is its prefix. *)
let t12 =
  {
    name = "T12-subsumed-sort";
    apply =
      (fun m c n ->
        match n with
        | N_sort { order = a; arg } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_sort { order = b; arg = inner } when Order.is_prefix b a ->
                    Memo.add_to_class m c (N_sort { order = a; arg = inner })
                    || changed
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* E1: σ/π commute. *)
let e1 =
  {
    name = "E1-select-project";
    apply =
      (fun m c n ->
        match n with
        | N_project { items; arg } ->
            (* lr: π(σ(r)) -> σ'(π(r)) when the predicate survives the
               projection. *)
            List.fold_left
              (fun changed el ->
                match el with
                | N_select { pred; arg = inner } -> (
                    match rewrite_to_outputs items pred with
                    | Some pred' ->
                        let p = Memo.insert m (N_project { items; arg = inner }) in
                        Memo.add_to_class m c (N_select { pred = pred'; arg = p })
                        || changed
                    | None -> changed)
                | _ -> changed)
              false (Memo.elements m arg)
        | N_select { pred; arg } ->
            (* rl: σ(π(r)) -> π(σ'(r)) by substituting definitions. *)
            List.fold_left
              (fun changed el ->
                match el with
                | N_project { items; arg = inner } -> (
                    match subst_through_items items pred with
                    | Some pred' ->
                        let s =
                          Memo.insert m (N_select { pred = pred'; arg = inner })
                        in
                        Memo.add_to_class m c (N_project { items; arg = s })
                        || changed
                    | None -> changed)
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* E2: commutativity modulo a reordering projection. *)
let e2 =
  {
    name = "E2-commute";
    apply =
      (fun m c n ->
        let commute mk left right =
          match (try_schema m left, try_schema m right) with
          | Some _, Some _ -> (
              let swapped = Memo.insert m (mk right left) in
              match try_schema m c with
              | Some out_schema ->
                  Memo.add_to_class m c
                    (N_project { items = identity_items out_schema; arg = swapped })
              | None -> false)
          | _ -> false
        in
        match n with
        | N_product { left; right } ->
            commute (fun l r -> N_product { left = l; right = r }) left right
        | N_join { pred; left; right } ->
            commute (fun l r -> N_join { pred; left = l; right = r }) left right
        | N_tjoin { pred; left; right } ->
            commute (fun l r -> N_tjoin { pred; left = l; right = r }) left right
        | _ -> false);
  }

(* E3: associativity of Cartesian product (schema concat is associative). *)
let e3 =
  {
    name = "E3-product-assoc";
    apply =
      (fun m c n ->
        match n with
        | N_product { left; right = c3 } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_product { left = c1; right = c2 } ->
                    let inner = Memo.insert m (N_product { left = c2; right = c3 }) in
                    Memo.add_to_class m c (N_product { left = c1; right = inner })
                    || changed
                | _ -> changed)
              false (Memo.elements m left)
        | _ -> false);
  }

(* E4: sort and selection commute (middleware side only). *)
let e4 =
  {
    name = "E4-sort-select";
    apply =
      (fun m c n ->
        match n with
        | N_sort { order; arg } when located m c Op.Mw ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_select { pred; arg = inner } ->
                    let s = Memo.insert m (N_sort { order; arg = inner }) in
                    Memo.add_to_class m c (N_select { pred; arg = s }) || changed
                | _ -> changed)
              false (Memo.elements m arg)
        | N_select { pred; arg } when located m c Op.Mw ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_sort { order; arg = inner } ->
                    let s = Memo.insert m (N_select { pred; arg = inner }) in
                    Memo.add_to_class m c (N_sort { order; arg = s }) || changed
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* E5: sort and projection commute (middleware side only). *)
let e5 =
  {
    name = "E5-sort-project";
    apply =
      (fun m c n ->
        match n with
        | N_sort { order; arg } when located m c Op.Mw ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_project { items; arg = inner } -> (
                    (* map order attrs through item definitions *)
                    let mapped =
                      List.map
                        (fun k ->
                          match
                            List.find_opt
                              (fun (_, out) -> String.equal out k.Order.attr)
                              items
                          with
                          | Some (def, _) -> (
                              match col_name def with
                              | Some dn -> Some { k with Order.attr = dn }
                              | None -> None)
                          | None -> None)
                        order
                    in
                    if List.for_all Option.is_some mapped then begin
                      let order' = List.map Option.get mapped in
                      let s = Memo.insert m (N_sort { order = order'; arg = inner }) in
                      Memo.add_to_class m c (N_project { items; arg = s })
                      || changed
                    end
                    else changed)
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* C1: merge adjacent selections. *)
let c1 =
  {
    name = "C1-combine-selects";
    apply =
      (fun m c n ->
        match n with
        | N_select { pred = p; arg } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_select { pred = q; arg = inner } ->
                    Memo.add_to_class m c
                      (N_select { pred = Ast.Binop (Ast.And, p, q); arg = inner })
                    || changed
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* [outer]'s expressions with [inner_items]' definitions substituted; None
   when one does not resolve. *)
let compose m outer inner_items =
  let find = Name_index.find (Memo.item_index m inner_items) in
  match
    List.map
      (fun (e, out) ->
        match subst_with find e with
        | Some e' -> (e', out)
        | None -> raise_notrace Exit)
      outer
  with
  | items -> Some items
  | exception Exit -> None

(* C2: compose adjacent projections. *)
let c2 =
  {
    name = "C2-combine-projects";
    apply =
      (fun m c n ->
        match n with
        | N_project { items = outer; arg } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_project { items = inner_items; arg = inner } -> (
                    match compose m outer inner_items with
                    | Some items ->
                        Memo.add_to_class m c (N_project { items; arg = inner })
                        || changed
                    | None -> changed)
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* R4: project away attributes the temporal aggregation does not need
   (grouping attributes, aggregate arguments and the period).  This is the
   paper's Figure 4(b)/Figure 5 shape: the scan feeding TAGGR^M selects
   only the relevant attributes, shrinking sorts and transfers. *)
let r4 =
  {
    name = "R4-project-taggr-argument";
    apply =
      (fun m c n ->
        match n with
        | N_taggr { group_by; aggs; arg } -> (
            match try_schema m arg with
            | None -> false
            | Some s ->
                let needed =
                  group_by
                  @ List.filter_map (fun (a : Op.agg) -> a.Op.arg) aggs
                  @ (match Op.period_attrs s with
                    | Some (t1, t2) -> [ t1; t2 ]
                    | None -> [])
                in
                let needed =
                  List.sort_uniq String.compare
                    (List.map
                       (fun a -> Schema.name_at s (Schema.index s a))
                       needed)
                in
                if List.length needed >= Schema.arity s then false
                else begin
                  (* identity projection onto the needed attributes, in
                     schema order so the result is deterministic *)
                  let items =
                    List.filter_map
                      (fun (a : Schema.attribute) ->
                        if List.mem a.Schema.name needed then
                          Some (Ast.Col (None, a.Schema.name), a.Schema.name)
                        else None)
                      (Schema.attributes s)
                  in
                  let parg = Memo.insert m (N_project { items; arg }) in
                  Memo.add_to_class m c
                    (N_taggr { group_by; aggs; arg = parg })
                end)
        | _ -> false);
  }

(* R1: push side-resolvable selection conjuncts below joins/products. *)
let r1 =
  {
    name = "R1-select-below-join";
    apply =
      (fun m c n ->
        match n with
        | N_select { pred; arg } ->
            List.fold_left
              (fun changed el ->
                let push mk left right =
                  match (try_schema m left, try_schema m right) with
                  | Some sl, Some sr ->
                      let conjs = Ast.conjuncts pred in
                      let lcs, rest = List.partition (covers sl) conjs in
                      let rcs, rest = List.partition (covers sr) rest in
                      if lcs = [] && rcs = [] then false
                      else begin
                        let wrap side cs =
                          match Ast.conj cs with
                          | None -> side
                          | Some p -> Memo.insert m (N_select { pred = p; arg = side })
                        in
                        let j = Memo.insert m (mk (wrap left lcs) (wrap right rcs)) in
                        let node =
                          match Ast.conj rest with
                          | None ->
                              (* all conjuncts pushed: the join itself is
                                 equivalent to the selection *)
                              None
                          | Some p -> Some (N_select { pred = p; arg = j })
                        in
                        match node with
                        | Some nd -> Memo.add_to_class m c nd
                        | None ->
                            if Memo.find m j <> Memo.find m c then begin
                              ignore (Memo.union m c j);
                              true
                            end
                            else false
                      end
                  | _ -> false
                in
                (match el with
                | N_join { pred = jp; left; right } ->
                    push (fun l r -> N_join { pred = jp; left = l; right = r }) left right
                | N_product { left; right } ->
                    push (fun l r -> N_product { left = l; right = r }) left right
                | _ -> false)
                || changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* R2: push group-attribute conjuncts below temporal aggregation. *)
let r2 =
  {
    name = "R2-select-below-taggr";
    apply =
      (fun m c n ->
        match n with
        | N_select { pred; arg } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_taggr { group_by; aggs; arg = inner } -> (
                    match try_schema m inner with
                    | None -> changed
                    | Some s_in ->
                        let group_schema = Schema.project s_in (List.map (fun g -> Schema.name_at s_in (Schema.index s_in g)) group_by) in
                        let conjs = Ast.conjuncts pred in
                        let pushable, rest =
                          List.partition (covers group_schema) conjs
                        in
                        if pushable = [] then changed
                        else begin
                          let inner' =
                            Memo.insert m
                              (N_select
                                 {
                                   pred = Option.get (Ast.conj pushable);
                                   arg = inner;
                                 })
                          in
                          let ag =
                            Memo.insert m
                              (N_taggr { group_by; aggs; arg = inner' })
                          in
                          (match Ast.conj rest with
                          | Some p ->
                              Memo.add_to_class m c (N_select { pred = p; arg = ag })
                          | None ->
                              if Memo.find m ag <> Memo.find m c then begin
                                ignore (Memo.union m c ag);
                                true
                              end
                              else false)
                          || changed
                        end)
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(* R3: seed temporal-join arguments with the enclosing time window.  For
   σ_w(l ⋈ᵀ r) where w bounds the result period (T1 < B ∧ T2 > A), every
   contributing input tuple must itself overlap [A, B), so overlap filters
   can be added to both arguments while keeping the selection on top. *)
let r3 =
  {
    name = "R3-window-below-tjoin";
    apply =
      (fun m c n ->
        match n with
        | N_select { pred; arg } ->
            List.fold_left
              (fun changed el ->
                match el with
                | N_tjoin { pred = jp; left; right } -> (
                    let conjs = Ast.conjuncts pred in
                    let bound upper =
                      List.find_map
                        (fun cj ->
                          match cj with
                          | Ast.Binop ((Ast.Lt | Ast.Le), Ast.Col (q, a), (Ast.Lit _ as v))
                            when upper
                                 && String.equal (Schema.base_name
                                      (match q with None -> a | Some q -> q ^ "." ^ a)) "T1" ->
                              Some v
                          | Ast.Binop ((Ast.Gt | Ast.Ge), Ast.Col (q, a), (Ast.Lit _ as v))
                            when (not upper)
                                 && String.equal (Schema.base_name
                                      (match q with None -> a | Some q -> q ^ "." ^ a)) "T2" ->
                              Some v
                          | _ -> None)
                        conjs
                    in
                    match (bound true, bound false) with
                    | Some b, Some a -> (
                        match (try_schema m left, try_schema m right) with
                        | Some sl, Some sr -> (
                            let window side_schema side =
                              match Op.period_attrs side_schema with
                              | Some (t1, t2) ->
                                  let w =
                                    Ast.Binop
                                      ( Ast.And,
                                        Ast.Binop (Ast.Lt, Ast.Col (None, t1), b),
                                        Ast.Binop (Ast.Gt, Ast.Col (None, t2), a) )
                                  in
                                  Memo.insert m (N_select { pred = w; arg = side })
                              | None -> side
                            in
                            let j =
                              Memo.insert m
                                (N_tjoin
                                   {
                                     pred = jp;
                                     left = window sl left;
                                     right = window sr right;
                                   })
                            in
                            Memo.add_to_class m c (N_select { pred; arg = j })
                            || changed)
                        | _ -> changed)
                    | _ -> changed)
                | _ -> changed)
              false (Memo.elements m arg)
        | _ -> false);
  }

(** All rules, in application order. *)
let all : rule list =
  [ t1; t2; t3; t_dupelim; t_coalesce; t_difference; t4; t5; t6; t7; t8; t9;
    t12; e1; e2; e3; e4; e5; c1; c2; r1; r2; r3; r4 ]

let c_rules_fired = Tango_obs.Counter.make "volcano.rules_fired"
let c_probes = Tango_obs.Counter.make "volcano.rule_probes"

type observer = rule:string -> Memo.t -> int -> unit

let max_elements = 5_000

(** Apply rules to fixpoint (bounded by [max_elements]), semi-naively.

    A rule reads only its element, stored class properties, and the
    element lists of the element's child classes.  Applied again with none
    of that changed, it changes nothing: it would add the same nodes and
    merge the same classes, all already done.  So once an element has been
    swept through the rules, it is skipped until one of its child classes
    is stamped ({!Memo.changed_since}) — unless the sweep itself stamped
    one, as a rule adding to a class that is also its own child does.  The
    rules that fire, their order, and the final memo are those of sweeping
    every element in every pass. *)
let saturate ?(rules = all) ?observer (m : Memo.t) : unit =
  (* by element id: the clock value after its last sweep, when nothing
     that sweep read changed during it; -1 when it must be swept *)
  let quiet = ref (Array.make 256 (-1)) in
  let stale id el =
    id >= Array.length !quiet
    || !quiet.(id) < 0
    || Memo.changed_since m el !quiet.(id)
  in
  let set_quiet id t =
    if id >= Array.length !quiet then begin
      let bigger = Array.make (2 * (id + 1)) (-1) in
      Array.blit !quiet 0 bigger 0 (Array.length !quiet);
      quiet := bigger
    end;
    !quiet.(id) <- t
  in
  let changed = ref true in
  while !changed && Memo.element_count m < max_elements do
    changed := false;
    List.iter
      (fun c ->
        let c = Memo.find m c in
        List.iter
          (fun (id, el) ->
            if Memo.element_count m < max_elements && stale id el then begin
              Tango_obs.Counter.incr c_probes;
              let t = Memo.clock m in
              List.iter
                (fun r ->
                  if r.apply m c el then begin
                    Tango_obs.Counter.incr c_rules_fired;
                    (match observer with
                    | Some f -> f ~rule:r.name m (Memo.find m c)
                    | None -> ());
                    changed := true
                  end)
                rules;
              set_quiet id (if Memo.changed_since m el t then -1 else Memo.clock m)
            end)
          (Memo.entries m c))
      (Memo.classes m)
  done
