(** SQL execution engine.

    Queries are compiled to closures once, then run; compilation resolves all
    column references to positional accesses.  The engine mirrors what a
    circa-2000 relational DBMS does with the paper's workloads:

    - base-table access picks an index range/point scan when a conjunct
      matches an indexed attribute, else a full scan (paying page reads and
      tuple deserialization through {!Tango_storage.Heap_file});
    - joins default to sort-merge for equi-joins and nested loops otherwise;
      the session can force a method (the experiments' stand-in for Oracle
      hints);
    - grouping and duplicate elimination are sort-based;
    - derived tables are materialized once per statement (memoized), while
      correlated scalar subqueries are re-evaluated per outer row — which is
      precisely why temporal aggregation expressed in SQL is slow (paper
      Section 3.4). *)

open Tango_rel
open Tango_sql

exception Sql_error of string

let sql_error fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

type join_method = Auto | Force_nested_loop | Force_sort_merge

type settings = { mutable join_method : join_method }

let default_settings () = { join_method = Auto }

(** Compilation/execution context. *)
type ctx = {
  catalog : Catalog.t;
  settings : settings;
  derived_cache : (Ast.query, Relation.t) Hashtbl.t;
      (** per-statement memo of uncorrelated derived tables *)
}

let make_ctx ?(settings = default_settings ()) catalog =
  { catalog; settings; derived_cache = Hashtbl.create 8 }

(* ------------------------------------------------------------------ *)
(* Expression compilation                                               *)
(* ------------------------------------------------------------------ *)

(* The runtime environment is a stack of rows, innermost first, matching the
   compile-time stack of schemas.  Frame 0 is the current row of the
   enclosing SELECT; outer frames support correlated subqueries. *)

type value_fn = Tuple.t list -> Value.t

let qualified q c = match q with None -> c | Some q -> q ^ "." ^ c

(* Resolve a column against the schema stack; returns frame and position. *)
let resolve schemas q c =
  let name = qualified q c in
  let rec go frame = function
    | [] -> None
    | schema :: rest -> (
        match Schema.index_opt schema name with
        | Some i -> Some (frame, i)
        | None -> go (frame + 1) rest)
  in
  go 0 schemas

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> true

(* SQL comparison: any NULL operand yields false. *)
let compare_op op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    let r =
      match op with
      | Ast.Eq -> c = 0
      | Ast.Neq -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | _ -> assert false
    in
    Value.Bool r

(* Infer the static type of an expression; used to build output schemas. *)
let rec infer_dtype infer_query schemas (e : Ast.expr) : Value.dtype =
  let recur = infer_dtype infer_query schemas in
  match e with
  | Lit Value.Null -> Value.TInt
  | Lit v -> Value.type_of v
  | Param n ->
      (* the DBMS never sees bind variables: the middleware instantiates
         plan templates before shipping SQL *)
      sql_error "unbound parameter $%d" n
  | Col (q, c) -> (
      match resolve schemas q c with
      | Some (frame, i) -> Schema.dtype_at (List.nth schemas frame) i
      | None -> sql_error "unknown column %s" (qualified q c))
  | Binop ((Add | Sub | Mul | Div) as op, a, b) -> (
      let ta = recur a and tb = recur b in
      match (op, ta, tb) with
      | _, Value.TFloat, _ | _, _, Value.TFloat | Ast.Div, _, _ -> Value.TFloat
      | Ast.Add, Value.TDate, Value.TInt | Ast.Add, Value.TInt, Value.TDate ->
          Value.TDate
      | Ast.Sub, Value.TDate, Value.TInt -> Value.TDate
      | Ast.Sub, Value.TDate, Value.TDate -> Value.TInt
      | _ -> Value.TInt)
  | Binop (_, _, _) | Not _ | Is_null _ | Is_not_null _ | Between _
  | In_subquery _ | Exists _ ->
      Value.TBool
  | Greatest (e :: _) | Least (e :: _) -> recur e
  | Greatest [] | Least [] -> sql_error "GREATEST/LEAST need arguments"
  | Agg (Count_star, _) | Agg (Count, _) -> Value.TInt
  | Agg (Avg, _) -> Value.TFloat
  | Agg ((Sum | Min | Max), Some a) -> recur a
  | Agg ((Sum | Min | Max), None) -> sql_error "aggregate needs an argument"
  | Scalar_subquery q -> (
      let schema = infer_query q in
      match Schema.attributes schema with
      | a :: _ -> a.Schema.dtype
      | [] -> sql_error "scalar subquery with empty select list")

(* ------------------------------------------------------------------ *)
(* Query compilation (mutually recursive with expressions)              *)
(* ------------------------------------------------------------------ *)

(* A compiled query maps the outer row stack to a relation. *)
type compiled_query = Tuple.t list -> Relation.t

let rec compile_query ctx (outer : Schema.t list) (q : Ast.query) :
    Schema.t * compiled_query =
  match q with
  | Ast.Select s -> compile_select ctx outer s
  | Ast.Union (a, b) ->
      let sa, fa = compile_query ctx outer a in
      let sb, fb = compile_query ctx outer b in
      if not (Schema.union_compatible sa sb) then
        sql_error "UNION arguments are not union-compatible";
      ( sa,
        fun rows ->
          let ra = fa rows and rb = fb rows in
          let all = Array.append (Relation.tuples ra) (Relation.tuples rb) in
          Array.sort Tuple.compare all;
          let out = ref [] in
          Array.iteri
            (fun i t ->
              if i = 0 || not (Tuple.equal t all.(i - 1)) then out := t :: !out)
            all;
          Relation.of_list sa (List.rev !out) )
  | Ast.Union_all (a, b) ->
      let sa, fa = compile_query ctx outer a in
      let sb, fb = compile_query ctx outer b in
      if not (Schema.union_compatible sa sb) then
        sql_error "UNION ALL arguments are not union-compatible";
      ( sa,
        fun rows ->
          let ra = fa rows and rb = fb rows in
          Relation.make sa
            (Array.append (Relation.tuples ra) (Relation.tuples rb)) )

and infer_query_schema ctx outer q = fst (compile_query ctx outer q)

and compile_expr ctx (schemas : Schema.t list) (e : Ast.expr) : value_fn =
  let recur = compile_expr ctx schemas in
  match e with
  | Lit v -> fun _ -> v
  | Param n -> sql_error "unbound parameter $%d" n
  | Col (q, c) -> (
      match resolve schemas q c with
      | Some (0, i) -> fun rows -> (List.hd rows).(i)
      | Some (frame, i) -> fun rows -> (List.nth rows frame).(i)
      | None -> sql_error "unknown column %s" (qualified q c))
  | Binop (Ast.And, a, b) ->
      let fa = recur a and fb = recur b in
      fun rows -> Value.Bool (truthy (fa rows) && truthy (fb rows))
  | Binop (Ast.Or, a, b) ->
      let fa = recur a and fb = recur b in
      fun rows -> Value.Bool (truthy (fa rows) || truthy (fb rows))
  | Binop (((Add | Sub | Mul | Div) as op), a, b) ->
      let fa = recur a and fb = recur b in
      let f =
        match op with
        | Ast.Add -> Value.add
        | Ast.Sub -> Value.sub
        | Ast.Mul -> Value.mul
        | Ast.Div -> Value.div
        | _ -> assert false
      in
      fun rows -> f (fa rows) (fb rows)
  | Binop (op, a, b) ->
      let fa = recur a and fb = recur b in
      fun rows -> compare_op op (fa rows) (fb rows)
  | Not a ->
      let fa = recur a in
      fun rows -> Value.Bool (not (truthy (fa rows)))
  | Is_null a ->
      let fa = recur a in
      fun rows -> Value.Bool (Value.is_null (fa rows))
  | Is_not_null a ->
      let fa = recur a in
      fun rows -> Value.Bool (not (Value.is_null (fa rows)))
  | Between (a, lo, hi) ->
      let fa = recur a and flo = recur lo and fhi = recur hi in
      fun rows ->
        let v = fa rows in
        Value.Bool
          (truthy (compare_op Ast.Ge v (flo rows))
          && truthy (compare_op Ast.Le v (fhi rows)))
  | Greatest es ->
      let fs = List.map recur es in
      fun rows ->
        List.fold_left
          (fun acc f -> Value.greatest acc (f rows))
          ((List.hd fs) rows) (List.tl fs)
  | Least es ->
      let fs = List.map recur es in
      fun rows ->
        List.fold_left
          (fun acc f -> Value.least acc (f rows))
          ((List.hd fs) rows) (List.tl fs)
  | Agg _ -> sql_error "aggregate used outside SELECT/HAVING of a grouped query"
  | Scalar_subquery q ->
      let _, fq = compile_query ctx schemas q in
      fun rows ->
        let r = fq rows in
        if Relation.cardinality r = 0 then Value.Null
        else if Relation.cardinality r > 1 then
          sql_error "scalar subquery returned %d rows" (Relation.cardinality r)
        else (Relation.tuples r).(0).(0)
  | In_subquery (a, q) ->
      let fa = recur a in
      let _, fq = compile_query ctx schemas q in
      fun rows ->
        let v = fa rows in
        let r = fq rows in
        Value.Bool
          (Array.exists (fun t -> Value.equal t.(0) v) (Relation.tuples r))
  | Exists q ->
      let _, fq = compile_query ctx schemas q in
      fun rows -> Value.Bool (Relation.cardinality (fq rows) > 0)

(* ---------------- FROM-item access paths ---------------- *)

(* A compiled FROM item: its (qualified) schema and a producer. *)
and compile_table_ref ctx outer (tref : Ast.table_ref) :
    Schema.t * (Tuple.t list -> Relation.t) =
  match tref with
  | Ast.Table (name, alias) ->
      let table = Catalog.find ctx.catalog name in
      let qual = Option.value alias ~default:name in
      let schema = Schema.qualify qual (Tango_storage.Heap_file.schema table.file) in
      ( schema,
        fun _rows ->
          Relation.of_list schema
            (List.of_seq (Tango_storage.Heap_file.scan table.file)) )
  | Ast.Derived (q, alias) ->
      let sub_schema, fq = compile_query ctx outer q in
      let schema = Schema.qualify alias (Schema.unqualify sub_schema) in
      ( schema,
        fun rows ->
          let r =
            match Hashtbl.find_opt ctx.derived_cache q with
            | Some r -> r
            | None ->
                let r = fq rows in
                (* Derived tables cannot be correlated in this subset, so
                   memoizing per statement is safe (Oracle-style view
                   materialization). *)
                Hashtbl.replace ctx.derived_cache q r;
                r
          in
          Relation.make schema (Relation.tuples r) )

(* Try to use an index for a base-table FROM item given single-table
   conjuncts of the form <col> op <literal>.  Returns the reduced relation
   and the list of conjuncts actually consumed. *)
and indexed_scan ctx (table : Catalog.table) schema cands :
    (Relation.t * Ast.expr list) option =
  let open Ast in
  let literal_bound e col_side =
    (* Returns (attr, op, value) for col-vs-literal comparisons. *)
    match (e, col_side) with
    | Binop (op, Col (q, c), Lit v), `Left -> Some (qualified q c, op, v)
    | Binop (op, Lit v, Col (q, c)), `Right -> Some (qualified q c, op, v)
    | _ -> None
  in
  let flip = function
    | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op
  in
  let bounds =
    List.filter_map
      (fun e ->
        match literal_bound e `Left with
        | Some b -> Some (e, b)
        | None -> (
            match literal_bound e `Right with
            | Some (a, op, v) -> Some (e, (a, flip op, v))
            | None -> None))
      cands
  in
  (* Pick the first bound whose attribute has an index. *)
  let usable =
    List.filter_map
      (fun (e, (attr, op, v)) ->
        match Schema.index_opt schema attr with
        | None -> None
        | Some _ -> (
            let base = Schema.base_name attr in
            match Catalog.index_on table base with
            | Some idx -> Some (e, idx, op, v)
            | None -> None))
      bounds
  in
  (* Prefer equality bounds. *)
  let usable =
    List.stable_sort
      (fun (_, _, op1, _) (_, _, op2, _) ->
        let rank = function Eq -> 0 | _ -> 1 in
        Int.compare (rank op1) (rank op2))
      usable
  in
  match usable with
  | [] -> None
  | (e, idx, op, v) :: _ ->
      let rids =
        match op with
        | Eq -> Tango_storage.Ordered_index.lookup idx v
        | Lt | Le -> Tango_storage.Ordered_index.range idx ~hi:v ()
        | Gt | Ge -> Tango_storage.Ordered_index.range idx ~lo:v ()
        | _ -> []
      in
      let pred = compile_expr ctx [ schema ] e in
      let matches t = truthy (pred [ t ]) in
      let tuples =
        List.filter_map
          (fun rid ->
            let t = Tango_storage.Heap_file.fetch table.file rid in
            (* Re-check the predicate: range lookups for strict comparisons
               over-approximate (Lt via hi-bound includes equality). *)
            if matches t then Some t else None)
          rids
      in
      Some (Relation.of_list schema tuples, [ e ])

(* ---------------- joins ---------------- *)

and merge_join left right l_idx r_idx extra_pred =
  (* Sort-merge equi-join on a single attribute pair; [extra_pred] filters
     concatenated candidate tuples. *)
  let ls = Array.copy (Relation.tuples left) in
  let rs = Array.copy (Relation.tuples right) in
  Array.sort (fun a b -> Value.compare a.(l_idx) b.(l_idx)) ls;
  Array.sort (fun a b -> Value.compare a.(r_idx) b.(r_idx)) rs;
  let out = ref [] in
  let nl = Array.length ls and nr = Array.length rs in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    let kv = ls.(!i).(l_idx) in
    let c = Value.compare kv rs.(!j).(r_idx) in
    if Value.is_null kv then incr i
    else if Value.is_null rs.(!j).(r_idx) then incr j
    else if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      (* Equal keys: emit the cross product of the two equal runs. *)
      let i_end = ref !i in
      while !i_end < nl && Value.compare ls.(!i_end).(l_idx) kv = 0 do
        incr i_end
      done;
      let j_end = ref !j in
      while !j_end < nr && Value.compare rs.(!j_end).(r_idx) kv = 0 do
        incr j_end
      done;
      for a = !i to !i_end - 1 do
        for b = !j to !j_end - 1 do
          let t = Tuple.concat ls.(a) rs.(b) in
          if extra_pred t then out := t :: !out
        done
      done;
      i := !i_end;
      j := !j_end
    end
  done;
  List.rev !out

and nested_loop_join left right pred =
  let out = ref [] in
  Array.iter
    (fun lt ->
      Array.iter
        (fun rt ->
          let t = Tuple.concat lt rt in
          if pred t then out := t :: !out)
        (Relation.tuples right))
    (Relation.tuples left);
  List.rev !out

(* ---------------- SELECT ---------------- *)

and compile_select ctx (outer : Schema.t list) (s : Ast.select) :
    Schema.t * compiled_query =
  let open Ast in
  (* A conventional DBMS has no temporal SQL support -- that is what the
     middleware adds on top (paper Section 1). *)
  if s.validtime then
    sql_error "VALIDTIME is not supported by the DBMS; use the middleware";
  (* 1. FROM items *)
  let items = List.map (compile_table_ref ctx outer) s.from in
  let from_schemas = List.map fst items in
  let combined_schema =
    List.fold_left Schema.concat (Schema.make []) from_schemas
  in
  (* 2. classify WHERE conjuncts *)
  let conjuncts = match s.where with None -> [] | Some w -> Ast.conjuncts w in
  (* Which FROM items does a conjunct touch?  Subquery-bearing conjuncts are
     always evaluated at the top. *)
  let touches schema e =
    List.for_all
      (fun (q, c) -> Schema.mem schema (qualified q c))
      (Ast.columns e)
  in
  let has_subquery = Ast.contains_subquery in
  let single_table =
    List.map
      (fun (schema, _) ->
        List.filter
          (fun e ->
            (not (has_subquery e))
            && Ast.columns e <> []
            && touches schema e)
          conjuncts)
      items
  in
  let consumed = List.concat single_table in
  let rest =
    List.filter (fun e -> not (List.memq e consumed)) conjuncts
  in
  (* 3. compile the FROM pipeline *)
  let compile_source i (schema, produce) table_conjuncts =
    (* Per-item filtered source; base tables may use an index. *)
    let filters =
      List.map (fun e -> compile_expr ctx (schema :: outer) e) table_conjuncts
    in
    let apply_filters rows rel =
      Relation.filter
        (fun t -> List.for_all (fun f -> truthy (f (t :: rows))) filters)
        rel
    in
    match List.nth s.from i with
    | Ast.Table (name, _alias) ->
        let table = Catalog.find ctx.catalog name in
        fun rows ->
          (* Only constant predicates can drive an index. *)
          (match indexed_scan ctx table schema table_conjuncts with
          | Some (rel, used) ->
              let remaining =
                List.filter (fun e -> not (List.memq e used)) table_conjuncts
              in
              let fs =
                List.map (fun e -> compile_expr ctx (schema :: outer) e) remaining
              in
              Relation.filter
                (fun t -> List.for_all (fun f -> truthy (f (t :: rows))) fs)
                rel
          | None -> apply_filters rows (produce rows))
    | Ast.Derived _ -> fun rows -> apply_filters rows (produce rows)
  in
  let sources =
    List.mapi
      (fun i (item, tcs) -> compile_source i item tcs)
      (List.combine items single_table)
  in
  (* Base-table info per FROM item, for index nested-loop joins: the
     catalog table plus compiled residual single-table filters to re-apply
     after an index probe. *)
  let base_infos =
    List.mapi
      (fun i ((schema, _), tcs) ->
        match List.nth s.from i with
        | Ast.Table (name, _) ->
            let table = Catalog.find ctx.catalog name in
            let fs = List.map (fun e -> compile_expr ctx (schema :: outer) e) tcs in
            Some (table, schema, fs)
        | Ast.Derived _ -> None)
      (List.combine items single_table)
  in
  (* Join conjuncts: touch the combined schema but not a single item, and no
     subqueries.  With a single FROM item there is no join stage, so
     everything left is evaluated at the top. *)
  let join_conjuncts =
    if List.length items <= 1 then []
    else
      List.filter
        (fun e ->
          (not (List.memq e consumed))
          && (not (has_subquery e))
          && touches combined_schema e)
        rest
  in
  let top_conjuncts =
    List.filter (fun e -> not (List.memq e join_conjuncts)) rest
  in
  (* Incremental left-deep join over the FROM list.  Sources are lazy so
     that an index-nested-loop probe of a base table avoids scanning it. *)
  let join_all rows =
    let rels = List.map (fun src -> lazy (src rows)) sources in
    match (rels, from_schemas) with
    | [], _ -> Relation.of_list (Schema.make []) [ [||] ]
    | [ r ], _ -> Lazy.force r
    | _ :: _ :: _, ([] | [ _ ]) -> assert false
    | r0 :: rrest, s0 :: srest ->
        let base_infos_tail =
          match base_infos with _ :: t -> t | [] -> []
        in
        let acc_rel = ref (Lazy.force r0) and acc_schema = ref s0 in
        let remaining = ref join_conjuncts in
        let iter3 f xs ys zs = List.iter2 (fun x (y, z) -> f x y z) xs (List.combine ys zs) in
        iter3
          (fun r sch base_info ->
            let new_schema = Schema.concat !acc_schema sch in
            (* conjuncts now applicable *)
            let applicable, later =
              List.partition (fun e -> touches new_schema e) !remaining
            in
            remaining := later;
            (* find an equi-join pair: acc.col = new.col *)
            let equi =
              List.find_map
                (fun e ->
                  match e with
                  | Binop (Eq, Col (q1, c1), Col (q2, c2)) -> (
                      let n1 = qualified q1 c1 and n2 = qualified q2 c2 in
                      match
                        (Schema.index_opt !acc_schema n1, Schema.index_opt sch n2)
                      with
                      | Some i1, Some i2 -> Some (e, i1, i2)
                      | _ -> (
                          match
                            (Schema.index_opt !acc_schema n2,
                             Schema.index_opt sch n1)
                          with
                          | Some i1, Some i2 -> Some (e, i1, i2)
                          | _ -> None))
                  | _ -> None)
                applicable
            in
            let fs =
              List.map
                (fun e -> compile_expr ctx (new_schema :: outer) e)
                applicable
            in
            let pred extra_skip t =
              List.for_all2
                (fun e f -> List.memq e extra_skip || truthy (f (t :: rows)))
                applicable fs
            in
            (* Index nested loop: when the new side is a base table with an
               index on its join attribute, probe it per accumulated tuple
               (the classic RBO choice) instead of materializing it. *)
            let index_probe =
              match (equi, base_info) with
              | Some (e, i1, i2), Some (table, _bschema, residual) -> (
                  let attr = Schema.base_name (Schema.name_at sch i2) in
                  match Catalog.index_on table attr with
                  | Some idx -> Some (e, i1, idx, table, residual)
                  | None -> None)
              | _ -> None
            in
            let index_nested_loop (e, i1, idx, (table : Catalog.table), residual) =
              let out = ref [] in
              Array.iter
                (fun (at : Tuple.t) ->
                  let key = at.(i1) in
                  if not (Value.is_null key) then
                    List.iter
                      (fun rid ->
                        let bt = Tango_storage.Heap_file.fetch table.Catalog.file rid in
                        if
                          List.for_all (fun f -> truthy (f (bt :: rows))) residual
                        then begin
                          let t = Tuple.concat at bt in
                          if pred [ e ] t then out := t :: !out
                        end)
                      (Tango_storage.Ordered_index.lookup idx key))
                (Relation.tuples !acc_rel);
              List.rev !out
            in
            (* merge_join key indexes are relative to each input relation:
               [i1] into the accumulated left, [i2] into the new right. *)
            let joined =
              match (ctx.settings.join_method, equi, index_probe) with
              | (Auto | Force_nested_loop), _, Some probe ->
                  index_nested_loop probe
              | Force_nested_loop, _, None | Auto, None, _ | Force_sort_merge, None, _ ->
                  nested_loop_join !acc_rel (Lazy.force r) (pred [])
              | (Auto | Force_sort_merge), Some (e, i1, i2), _ ->
                  merge_join !acc_rel (Lazy.force r) i1 i2 (pred [ e ])
            in
            acc_schema := new_schema;
            acc_rel := Relation.of_list new_schema joined)
          rrest srest base_infos_tail;
        !acc_rel
  in
  ignore combined_schema;
  (* 4. top-level filter (incl. subquery conjuncts) *)
  let top_filters =
    List.map (fun e -> compile_expr ctx (combined_schema :: outer) e) top_conjuncts
  in
  (* 5. projection/grouping *)
  let grouped =
    s.group_by <> []
    || List.exists
         (function Expr (e, _) -> Ast.contains_agg e | Star -> false)
         s.items
    || (match s.having with Some h -> Ast.contains_agg h | None -> false)
  in
  let expand_items () =
    (* Expand Star into explicit column items. *)
    List.concat_map
      (function
        | Star ->
            List.map
              (fun a -> Expr (Col (None, a.Schema.name), Some a.Schema.name))
              (Schema.attributes combined_schema)
        | Expr (e, a) -> [ Expr (e, a) ])
      s.items
  in
  let items_expanded = expand_items () in
  let item_name i (e : Ast.expr) alias =
    match (alias, e) with
    | Some a, _ -> a
    | None, Col (_, c) -> c
    | None, Agg (f, _) -> Ast.aggfun_name f
    | None, _ -> "COL" ^ string_of_int (i + 1)
  in
  let out_schema =
    Schema.make
      (List.mapi
         (fun i item ->
           match item with
           | Expr (e, alias) ->
               ( item_name i e alias,
                 infer_dtype
                   (fun q -> infer_query_schema ctx (combined_schema :: outer) q)
                   (combined_schema :: outer) e )
           | Star -> assert false)
         items_expanded)
  in
  let compiled =
    if not grouped then compile_plain ctx outer s combined_schema
        items_expanded out_schema join_all top_filters
    else compile_grouped ctx outer s combined_schema items_expanded out_schema
        join_all top_filters
  in
  (out_schema, compiled)

and compile_plain ctx outer (s : Ast.select) combined_schema items out_schema
    join_all top_filters : compiled_query =
  let open Ast in
  let item_fns =
    List.map
      (function
        | Expr (e, _) -> compile_expr ctx (combined_schema :: outer) e
        | Star -> assert false)
      items
  in
  (* ORDER BY: prefer output-schema resolution (aliases), fall back to the
     pre-projection schema. *)
  let order_plan =
    List.map
      (fun (e, asc) ->
        match e with
        | Col (q, c) when Schema.index_opt out_schema (qualified q c) <> None ->
            `Output (Schema.index out_schema (qualified q c), asc)
        | _ -> `Input (compile_expr ctx (combined_schema :: outer) e, asc))
      s.order_by
  in
  fun rows ->
    let input = join_all rows in
    let input =
      if top_filters = [] then input
      else
        Relation.filter
          (fun t -> List.for_all (fun f -> truthy (f (t :: rows))) top_filters)
          input
    in
    (* Sort on input-resolved keys first (stable), carry through projection,
       then sort on output-resolved keys. *)
    let input_keys =
      List.filter_map (function `Input (f, asc) -> Some (f, asc) | _ -> None)
        order_plan
    in
    let input =
      if input_keys = [] then input
      else begin
        let ts = Array.copy (Relation.tuples input) in
        let keyed =
          Array.map
            (fun t -> (List.map (fun (f, _) -> f (t :: rows)) input_keys, t))
            ts
        in
        Array.stable_sort
          (fun (ka, _) (kb, _) ->
            let rec cmp ks asc_list =
              match (ks, asc_list) with
              | [], _ -> 0
              | (a, b) :: rest, (_, asc) :: arest -> (
                  let c = Value.compare a b in
                  let c = if asc then c else -c in
                  match c with 0 -> cmp rest arest | c -> c)
              | _ -> 0
            in
            cmp (List.combine ka kb) input_keys)
          keyed;
        Relation.make (Relation.schema input) (Array.map snd keyed)
      end
    in
    let projected =
      Relation.make out_schema
        (Array.map
           (fun t -> Array.of_list (List.map (fun f -> f (t :: rows)) item_fns))
           (Relation.tuples input))
    in
    let projected =
      if not s.distinct then projected
      else begin
        let ts = Array.copy (Relation.tuples projected) in
        Array.sort Tuple.compare ts;
        let out = ref [] in
        Array.iteri
          (fun i t ->
            if i = 0 || not (Tuple.equal t ts.(i - 1)) then out := t :: !out)
          ts;
        Relation.of_list out_schema (List.rev !out)
      end
    in
    let output_keys =
      List.filter_map
        (function `Output (i, asc) -> Some (i, asc) | _ -> None)
        order_plan
    in
    if output_keys = [] then projected
    else begin
      let ts = Array.copy (Relation.tuples projected) in
      Array.stable_sort
        (fun a b ->
          let rec cmp = function
            | [] -> 0
            | (i, asc) :: rest -> (
                let c = Value.compare a.(i) b.(i) in
                let c = if asc then c else -c in
                match c with 0 -> cmp rest | c -> c)
          in
          cmp output_keys)
        ts;
      Relation.make out_schema ts
    end

and compile_grouped ctx outer (s : Ast.select) combined_schema items
    out_schema join_all top_filters : compiled_query =
  let open Ast in
  let schemas = combined_schema :: outer in
  let group_fns = List.map (compile_expr ctx schemas) s.group_by in
  (* Compile an expression in "aggregate context": Agg nodes reduce over the
     group's member rows; other leaves evaluate on the first member. *)
  let rec compile_agg_expr (e : Ast.expr) :
      Tuple.t list (* members *) -> Tuple.t list (* outer rows *) -> Value.t =
    match e with
    | Agg (Count_star, _) -> fun members _ -> Value.Int (List.length members)
    | Agg (f, Some arg) ->
        let farg = compile_expr ctx schemas arg in
        fun members rows ->
          let vs =
            List.filter_map
              (fun m ->
                let v = farg (m :: rows) in
                if Value.is_null v then None else Some v)
              members
          in
          reduce_agg f vs
    | Agg (Count, None) | Agg (Sum, None) | Agg (Avg, None)
    | Agg (Min, None) | Agg (Max, None) ->
        sql_error "aggregate needs an argument"
    | Binop (op, a, b) ->
        let fa = compile_agg_expr a and fb = compile_agg_expr b in
        fun members rows ->
          let va = fa members rows and vb = fb members rows in
          apply_binop op va vb
    | Not a ->
        let fa = compile_agg_expr a in
        fun members rows -> Value.Bool (not (truthy (fa members rows)))
    | _ when not (Ast.contains_agg e) ->
        let f = compile_expr ctx schemas e in
        fun members rows ->
          (match members with
          | m :: _ -> f (m :: rows)
          | [] -> Value.Null)
    | _ -> sql_error "unsupported aggregate expression"
  and apply_binop op va vb =
    match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb
    | And -> Value.Bool (truthy va && truthy vb)
    | Or -> Value.Bool (truthy va || truthy vb)
    | (Eq | Neq | Lt | Le | Gt | Ge) as op -> compare_op op va vb
  and reduce_agg f vs =
    match (f, vs) with
    | Count, _ -> Value.Int (List.length vs)
    | _, [] -> Value.Null
    | Sum, v :: rest -> List.fold_left Value.add v rest
    | Avg, vs ->
        let n = List.length vs in
        Value.Float
          (List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs
          /. float_of_int n)
    | Min, v :: rest ->
        List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest
    | Max, v :: rest ->
        List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest
    | Count_star, _ -> Value.Int (List.length vs)
  in
  let item_fns =
    List.map
      (function
        | Expr (e, _) -> compile_agg_expr e
        | Star -> sql_error "SELECT * is not allowed with GROUP BY")
      items
  in
  let having_fn = Option.map compile_agg_expr s.having in
  let order_keys =
    List.map
      (fun (e, asc) ->
        match e with
        | Col (q, c) when Schema.index_opt out_schema (qualified q c) <> None ->
            (Schema.index out_schema (qualified q c), asc)
        | _ -> sql_error "ORDER BY of a grouped query must use output columns")
      s.order_by
  in
  fun rows ->
    let input = join_all rows in
    let input =
      if top_filters = [] then input
      else
        Relation.filter
          (fun t -> List.for_all (fun f -> truthy (f (t :: rows))) top_filters)
          input
    in
    (* Sort-based grouping on the group-by key values. *)
    let keyed =
      Array.map
        (fun t -> (List.map (fun f -> f (t :: rows)) group_fns, t))
        (Relation.tuples input)
    in
    let cmp_key ka kb =
      let rec go = function
        | [] -> 0
        | (a, b) :: rest -> (
            match Value.compare a b with 0 -> go rest | c -> c)
      in
      go (List.combine ka kb)
    in
    Array.sort (fun (ka, _) (kb, _) -> cmp_key ka kb) keyed;
    let groups = ref [] in
    let n = Array.length keyed in
    let i = ref 0 in
    while !i < n do
      let key, _ = keyed.(!i) in
      let members = ref [] in
      while !i < n && cmp_key (fst keyed.(!i)) key = 0 do
        members := snd keyed.(!i) :: !members;
        incr i
      done;
      groups := List.rev !members :: !groups
    done;
    let groups = List.rev !groups in
    (* A global aggregate over an empty input still yields one row. *)
    let groups =
      if groups = [] && s.group_by = [] then [ [] ] else groups
    in
    let out_tuples =
      List.filter_map
        (fun members ->
          let keep =
            match having_fn with
            | None -> true
            | Some f -> truthy (f members rows)
          in
          if not keep then None
          else
            Some
              (Array.of_list (List.map (fun f -> f members rows) item_fns)))
        groups
    in
    let out = Relation.of_list out_schema out_tuples in
    if order_keys = [] then out
    else begin
      let ts = Array.copy (Relation.tuples out) in
      Array.stable_sort
        (fun a b ->
          let rec cmp = function
            | [] -> 0
            | (i, asc) :: rest -> (
                let c = Value.compare a.(i) b.(i) in
                let c = if asc then c else -c in
                match c with 0 -> cmp rest | c -> c)
          in
          cmp order_keys)
        ts;
      Relation.make out_schema ts
    end

let c_queries = Tango_obs.Counter.make "dbms.queries"
let c_rows = Tango_obs.Counter.make "dbms.rows_returned"

(** Execute a query AST against a catalog. *)
let run_query ?settings catalog (q : Ast.query) : Relation.t =
  Tango_obs.Counter.incr c_queries;
  Tango_obs.Trace.span "dbms.query" (fun () ->
      let ctx = make_ctx ?settings catalog in
      let _, f = compile_query ctx [] q in
      let out = f [] in
      Tango_obs.Counter.add c_rows (Relation.cardinality out);
      Tango_obs.Trace.attr "rows" (Tango_obs.Trace.Int (Relation.cardinality out));
      out)
