(** The Translator-To-SQL component (paper Figure 1): converts the
    DBMS-resident parts of a chosen plan — subtrees below a [T^M] that reach
    either base relations or [T^D] boundaries — into SQL for the DBMS.

    Algebra attribute names may be qualified ([A.PosID]); SQL column aliases
    cannot contain dots, so names are sanitized with [__].  Every generated
    SELECT lists its output columns explicitly, in the subtree's schema
    order, so the middleware's `TRANSFER^M` can consume results
    positionally.

    Base-table scans (and [T^D] temp tables) are {e inlined} into the FROM
    clause of the operator above them rather than wrapped in derived
    tables — the view-merging a real DBMS performs — so the DBMS can use its
    access paths (index scans, index nested-loop joins) on them.

    Temporal aggregation translates to the constant-interval SQL (a
    correlated-subquery formulation in the style of Kline & Snodgrass /
    Snodgrass's book — the paper's "50-line SQL query"), which is exactly
    what makes `TAGGR^D` slow.

    [Difference] and [Coalesce] have no DBMS translation here (the paper
    treats them as middleware-only additions); translating them raises
    {!Untranslatable}. *)

open Tango_rel
open Tango_sql
open Tango_algebra

exception Untranslatable of string

let untranslatable fmt =
  Format.kasprintf (fun s -> raise (Untranslatable s)) fmt

(** SQL-safe column name for an algebra attribute. *)
let sql_name (attr : string) : string =
  String.concat "__" (String.split_on_char '.' attr)

(** Column names of a temp table created by [T^D] for a middleware relation
    with this schema (used by both the translator and the execution
    engine). *)
let temp_table_schema (s : Schema.t) : Schema.t =
  Schema.make
    (List.map
       (fun (a : Schema.attribute) -> (sql_name a.name, a.dtype))
       (Schema.attributes s))

(* An operator tree whose every node carries its output schema, derived
   one level from its children's, at most once and only where the
   translation needs it; [args] are the nodes of [op]'s children. *)
type tree = { op : Op.t; schema : Schema.t Lazy.t; args : tree list }

let rec of_op (op : Op.t) : tree =
  let args = List.map of_op (Op.children op) in
  {
    op;
    schema =
      lazy (Op.schema_step op (List.map (fun a -> Lazy.force a.schema) args));
    args;
  }

let arg t = match t.args with [ a ] -> a | _ -> invalid_arg "Translate.arg"

let args2 t =
  match t.args with [ l; r ] -> (l, r) | _ -> invalid_arg "Translate.args2"

type ctx = {
  mutable fresh : int;
  temp_name : Op.t -> string;
      (** name of the temp table materializing a given [T^D] node *)
}

let fresh_alias ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s%d" prefix ctx.fresh

(* A child operator viewed as a FROM item: how to reference it in FROM and
   how to turn an algebra attribute of its schema into a SQL expression. *)
type source = {
  from_ref : Ast.table_ref;
  col : string (* algebra attr name, as in the child schema *) -> Ast.expr;
  schema : Schema.t;  (* the child's algebra schema *)
  where : Ast.expr list;
      (* predicates of inlined selections, to conjoin into the consumer's
         WHERE (selection merging keeps base tables visible to the DBMS's
         access paths) *)
}

(* Rewrite an algebra expression into SQL, resolving each column reference
   against the sources' algebra schemas in order. *)
let rewrite (sources : source list) (e : Ast.expr) : Ast.expr =
  Scalar.map_cols
    (fun q c ->
      let name = match q with None -> c | Some q -> q ^ "." ^ c in
      let rec find = function
        | [] -> untranslatable "column %s does not resolve" name
        | src :: rest -> (
            match Schema.index_opt src.schema name with
            | Some i -> src.col (Schema.name_at src.schema i)
            | None -> find rest)
      in
      find sources)
    e

(* Standard output items: every attribute of [src.schema], sanitized, in
   schema order. *)
let all_items (src : source) =
  List.map
    (fun (a : Schema.attribute) ->
      Ast.Expr (src.col a.name, Some (sql_name a.name)))
    (Schema.attributes src.schema)

(* View a child operator as a FROM item.  Scans and T^D temp tables inline
   as base tables; everything else becomes a derived table whose output
   columns carry sanitized algebra names. *)
let rec source_of ctx (t : tree) : source =
  match t.op with
  | Op.Scan { table; alias; _ } ->
      let qual = Option.value alias ~default:table in
      {
        from_ref = Ast.Table (table, Some qual);
        col = (fun attr -> Ast.Col (Some qual, Schema.base_name attr));
        schema = Lazy.force t.schema;
        where = [];
      }
  | Op.To_db _ ->
      let table = ctx.temp_name t.op in
      let s = Lazy.force (arg t).schema in
      let alias = fresh_alias ctx "td" in
      {
        from_ref = Ast.Table (table, Some alias);
        col = (fun attr -> Ast.Col (Some alias, sql_name attr));
        schema = s;
        where = [];
      }
  | Op.Select { pred; _ } -> (
      (* Selection merging: keep selecting from the inlined base table and
         push the predicate into the consumer's WHERE. *)
      let src = source_of ctx (arg t) in
      match src.from_ref with
      | Ast.Table _ -> { src with where = src.where @ [ rewrite [ src ] pred ] }
      | Ast.Derived _ -> derived_source ctx t)
  | _ -> derived_source ctx t

and derived_source ctx t =
  let q = translate_node ctx t in
  let alias = fresh_alias ctx "q" in
  {
    from_ref = Ast.Derived (q, alias);
    col = (fun attr -> Ast.Col (Some alias, sql_name attr));
    schema = Lazy.force t.schema;
    where = [];
  }

(* A translated node: a query whose output columns are the sanitized names
   of the node's schema, in order. *)
and translate_node ctx (t : tree) : Ast.query =
  match t.op with
  | Op.Scan _ | Op.To_db _ ->
      let src = source_of ctx t in
      Ast.select (all_items src) [ src.from_ref ] ~where:(Ast.conj src.where)
  | Op.Select { pred; _ } ->
      let src = source_of ctx (arg t) in
      Ast.select (all_items src) [ src.from_ref ]
        ~where:(Ast.conj (src.where @ [ rewrite [ src ] pred ]))
  | Op.To_mw _ -> untranslatable "T^M inside a DBMS-resident subtree"
  | Op.Project { items; _ } ->
      let src = source_of ctx (arg t) in
      let sql_items =
        List.map
          (fun (e, name) -> Ast.Expr (rewrite [ src ] e, Some (sql_name name)))
          items
      in
      Ast.select sql_items [ src.from_ref ] ~where:(Ast.conj src.where)
  | Op.Sort { order; _ } ->
      let src = source_of ctx (arg t) in
      let order_by =
        List.map
          (fun k ->
            let resolved =
              Schema.name_at src.schema (Schema.index src.schema k.Order.attr)
            in
            (src.col resolved, k.Order.dir = Order.Asc))
          order
      in
      Ast.select (all_items src) [ src.from_ref ] ~order_by
        ~where:(Ast.conj src.where)
  | Op.Product _ ->
      let left, right = args2 t in
      translate_join ctx None left right
  | Op.Join { pred; _ } ->
      let left, right = args2 t in
      translate_join ctx (Some pred) left right
  | Op.Temporal_join { pred; _ } ->
      let left, right = args2 t in
      translate_temporal_join ctx pred left right
  | Op.Temporal_aggregate { group_by; aggs; _ } ->
      translate_taggr ctx group_by aggs (arg t)
  | Op.Dup_elim _ ->
      let src = source_of ctx (arg t) in
      Ast.Select
        {
          validtime = false;
          coalesce = false;
          distinct = true;
          items = all_items src;
          from = [ src.from_ref ];
          where = Ast.conj src.where;
          group_by = [];
          having = None;
          order_by = [];
        }
  | Op.Coalesce _ -> untranslatable "coalesce has no DBMS translation"
  | Op.Difference _ -> untranslatable "difference has no DBMS translation"

and check_distinct_columns sl sr =
  let names s =
    List.map (fun (a : Schema.attribute) -> sql_name a.name) (Schema.attributes s)
  in
  let nl = names sl and nr = names sr in
  List.iter
    (fun n ->
      if List.mem n nr then
        untranslatable "column %s appears on both sides of a join" n)
    nl

and translate_join ctx pred left right : Ast.query =
  let sl = source_of ctx left and sr = source_of ctx right in
  check_distinct_columns sl.schema sr.schema;
  let where =
    Ast.conj
      (sl.where @ sr.where
      @ match pred with None -> [] | Some p -> [ rewrite [ sl; sr ] p ])
  in
  Ast.select (all_items sl @ all_items sr) [ sl.from_ref; sr.from_ref ] ~where

and translate_temporal_join ctx pred left right : Ast.query =
  let sl = source_of ctx left and sr = source_of ctx right in
  let period (src : source) =
    match Op.period_attrs src.schema with
    | Some p -> p
    | None -> untranslatable "temporal join over a non-temporal argument"
  in
  let l1, l2 = period sl and r1, r2 = period sr in
  let keep (src : source) =
    List.map
      (fun (a : Schema.attribute) ->
        Ast.Expr (src.col a.name, Some (sql_name a.name)))
      (Op.non_period_attrs src.schema)
  in
  (* Output columns: non-period of both sides, then the intersection period
     as T1/T2 — the paper's GREATEST/LEAST pattern (Figure 5). *)
  let items =
    keep sl @ keep sr
    @ [
        Ast.Expr (Ast.Greatest [ sl.col l1; sr.col r1 ], Some "T1");
        Ast.Expr (Ast.Least [ sl.col l2; sr.col r2 ], Some "T2");
      ]
  in
  let overlap =
    Ast.Binop
      ( Ast.And,
        Ast.Binop (Ast.Lt, sl.col l1, sr.col r2),
        Ast.Binop (Ast.Gt, sl.col l2, sr.col r1) )
  in
  let pred_sql = rewrite [ sl; sr ] pred in
  Ast.select items
    [ sl.from_ref; sr.from_ref ]
    ~where:(Ast.conj (sl.where @ sr.where @ [ pred_sql; overlap ]))

(* Temporal aggregation in SQL: endpoints per group, constant intervals via
   a correlated MIN, join back, GROUP BY. *)
and translate_taggr ctx group_by aggs (arg : tree) : Ast.query =
  let s = Lazy.force arg.schema in
  (* Translate the argument once and share the AST value: the DBMS
     materializes structurally identical derived tables once per statement,
     so every reference below reuses the same computation.  (Plain scans
     stay plain: sharing matters for computed arguments.) *)
  (* For computed arguments, one shared derived query (the DBMS
     materializes structurally identical derived tables once).  An inlined
     Select-over-Scan would need its WHERE re-rewritten per alias, so the
     taggr argument is always translated as one derived query here. *)
  let shared_q =
    match arg.op with
    | Op.Scan _ -> None
    | _ -> Some (translate_node ctx arg)
  in
  let fresh_src () =
    match (arg.op, shared_q) with
    | Op.Scan { table; _ }, _ ->
        let a = fresh_alias ctx "r" in
        {
          from_ref = Ast.Table (table, Some a);
          col = (fun attr -> Ast.Col (Some a, Schema.base_name attr));
          schema = s;
          where = [];
        }
    | _, Some q ->
        let a = fresh_alias ctx "r" in
        {
          from_ref = Ast.Derived (q, a);
          col = (fun attr -> Ast.Col (Some a, sql_name attr));
          schema = s;
          where = [];
        }
    | _, None -> assert false
  in
  let t1, t2 =
    match Op.period_attrs s with
    | Some p -> p
    | None -> untranslatable "temporal aggregation over a non-temporal argument"
  in
  let group_cols =
    List.map (fun g -> Schema.name_at s (Schema.index s g)) group_by
  in
  (* points = SELECT G..., T1 AS PT FROM arg UNION SELECT G..., T2 FROM arg *)
  let points_select t_attr =
    let src = fresh_src () in
    let items =
      List.map
        (fun g -> Ast.Expr (src.col g, Some (sql_name g)))
        group_cols
      @ [ Ast.Expr (src.col t_attr, Some "PT") ]
    in
    Ast.select items [ src.from_ref ]
  in
  let points = Ast.Union (points_select t1, points_select t2) in
  (* intervals g: for each point, the next point within the same group *)
  let p1 = fresh_alias ctx "p" and p2 = fresh_alias ctx "p" in
  let same_group a b =
    List.map
      (fun g ->
        Ast.Binop
          (Ast.Eq, Ast.Col (Some a, sql_name g), Ast.Col (Some b, sql_name g)))
      group_cols
  in
  let next_point =
    Ast.Scalar_subquery
      (Ast.select
         [ Ast.Expr (Ast.Agg (Ast.Min, Some (Ast.Col (Some p2, "PT"))), Some "M") ]
         [ Ast.Derived (points, p2) ]
         ~where:
           (Ast.conj
              (same_group p2 p1
              @ [
                  Ast.Binop
                    (Ast.Gt, Ast.Col (Some p2, "PT"), Ast.Col (Some p1, "PT"));
                ])))
  in
  let intervals =
    Ast.select
      (List.map
         (fun g ->
           Ast.Expr (Ast.Col (Some p1, sql_name g), Some (sql_name g)))
         group_cols
      @ [
          Ast.Expr (Ast.Col (Some p1, "PT"), Some "TS");
          Ast.Expr (next_point, Some "TE");
        ])
      [ Ast.Derived (points, p1) ]
  in
  (* join back to the argument and aggregate per constant interval *)
  let g = fresh_alias ctx "g" in
  let rsrc = fresh_src () in
  let agg_expr (a : Op.agg) =
    match (a.Op.fn, a.Op.arg) with
    | Ast.Count_star, _ -> Ast.Agg (Ast.Count_star, None)
    | fn, Some attr ->
        let resolved = Schema.name_at s (Schema.index s attr) in
        Ast.Agg (fn, Some (rsrc.col resolved))
    | fn, None ->
        untranslatable "aggregate %s needs an argument" (Ast.aggfun_name fn)
  in
  let cover =
    [
      Ast.Is_not_null (Ast.Col (Some g, "TE"));
      Ast.Binop (Ast.Le, rsrc.col t1, Ast.Col (Some g, "TS"));
      Ast.Binop (Ast.Ge, rsrc.col t2, Ast.Col (Some g, "TE"));
    ]
    @ List.map
        (fun gc ->
          Ast.Binop (Ast.Eq, rsrc.col gc, Ast.Col (Some g, sql_name gc)))
        group_cols
  in
  let out_group_names = List.combine group_by group_cols in
  let items =
    List.map
      (fun (gb, gc) ->
        Ast.Expr (Ast.Col (Some g, sql_name gc), Some (sql_name gb)))
      out_group_names
    @ [
        Ast.Expr (Ast.Col (Some g, "TS"), Some "T1");
        Ast.Expr (Ast.Col (Some g, "TE"), Some "T2");
      ]
    @ List.map (fun a -> Ast.Expr (agg_expr a, Some (sql_name a.Op.out))) aggs
  in
  let group_by_sql =
    List.map (fun gc -> Ast.Col (Some g, sql_name gc)) group_cols
    @ [ Ast.Col (Some g, "TS"); Ast.Col (Some g, "TE") ]
  in
  let order_by =
    List.map
      (fun (gb, _) -> (Ast.Col (None, sql_name gb), true))
      out_group_names
    @ [ (Ast.Col (None, "T1"), true) ]
  in
  Ast.select items
    [ Ast.Derived (intervals, g); rsrc.from_ref ]
    ~where:(Ast.conj cover) ~group_by:group_by_sql ~order_by

(** Translate a DBMS-resident subtree, deriving each node's schema once,
    where the translation first needs it; also the subtree's output
    schema.  [temp_name] assigns every [To_db] node its temp-table name. *)
let translate_with_schema ?(temp_name = fun _ -> "TANGO_TMP") (op : Op.t) :
    Ast.query * Schema.t =
  let ctx = { fresh = 0; temp_name } in
  let t = of_op op in
  let q = translate_node ctx t in
  (q, Lazy.force t.schema)

(** Translate a DBMS-resident subtree.  [temp_name] assigns every [To_db]
    node its temp-table name. *)
let translate ?temp_name (op : Op.t) : Ast.query =
  fst (translate_with_schema ?temp_name op)
