(** SQL execution engine.

    Queries are compiled to closures once, then run; compilation resolves all
    column references to positional accesses.  A compiled SELECT is a batch
    producer: each pull yields the next non-empty batch of result rows.
    Scans, filters, projections and single-source derived tables pull one
    page at a time, so rows stream to the caller as it advances; only
    pipeline breakers materialize (sorting, grouping, DISTINCT, merge-join
    inputs, UNION, memoized derived tables).  The engine mirrors what a
    circa-2000 relational DBMS does with the paper's workloads:

    - base-table access picks an index range/point scan when a conjunct
      matches an indexed attribute, else a full scan (paying page reads and
      tuple deserialization through {!Tango_storage.Heap_file});
    - joins default to sort-merge for equi-joins and nested loops otherwise;
      the session can force a method (the experiments' stand-in for Oracle
      hints);
    - grouping and duplicate elimination are sort-based;
    - derived tables read more than once per statement are materialized
      once (memoized), while correlated scalar subqueries are re-evaluated
      per outer row — which is precisely why temporal aggregation expressed
      in SQL is slow (paper Section 3.4);
    - a statement decodes and carries only the columns it uses (see
      "Column pruning" below). *)

open Tango_rel
open Tango_sql

exception Sql_error of string

let sql_error fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

type join_method = Auto | Force_nested_loop | Force_sort_merge

type settings = { mutable join_method : join_method }

let default_settings () = { join_method = Auto }

(** Compilation/execution context of one statement. *)
type ctx = {
  catalog : Catalog.t;
  settings : settings;
  derived_uses : (Ast.query, int) Hashtbl.t;
      (** how often each derived-table query occurs in the statement;
          complete once compilation ends, before the first pull *)
  derived_cache : (Ast.query, Tuple.t array) Hashtbl.t;
      (** per-statement memo of materialized derived tables *)
}

let make_ctx settings catalog =
  {
    catalog;
    settings;
    derived_uses = Hashtbl.create 8;
    derived_cache = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Batch producers                                                      *)
(* ------------------------------------------------------------------ *)

(* A batch producer returns the next non-empty batch of rows, or [None]
   once exhausted (and on every later call).  Batches are never mutated
   by their consumers, so a producer may hand out arrays it still
   holds. *)
type producer = unit -> Tuple.t array option

(* Rows per batch for producers that build their own batches (joins,
   index scans, materialized results); full scans hand out pages. *)
let batch_rows = 256

(* A materialized result, handed out in [batch_rows] slices; the producer
   drops the rows once the last slice is out. *)
let of_array (ts : Tuple.t array) : producer =
  let rest = ref ts and pos = ref 0 in
  fun () ->
    let ts = !rest and p = !pos in
    let n = Array.length ts - p in
    if n <= 0 then None
    else if n <= batch_rows then begin
      rest := [||];
      pos := 0;
      Some (if p = 0 then ts else Array.sub ts p n)
    end
    else begin
      pos := p + batch_rows;
      Some (Array.sub ts p batch_rows)
    end

(* Every remaining row, in a fresh array the caller may sort in place. *)
let drain (p : producer) : Tuple.t array =
  let rec go acc =
    match p () with None -> Array.concat (List.rev acc) | Some b -> go (b :: acc)
  in
  go []

(* Build the producer at its first pull: a pipeline breaker does its work
   when the consumer first asks for rows, not when the statement opens. *)
let deferred (make : unit -> producer) : producer =
  let built = ref None in
  fun () ->
    match !built with
    | Some p -> p ()
    | None ->
        let p = make () in
        built := Some p;
        p ()

let filtered keep (p : producer) : producer =
  let rec pull () =
    match p () with
    | None -> None
    | Some b -> (
        match Relation.filter_tuples keep b with
        | [||] -> pull ()
        | kept -> Some kept)
  in
  pull

let mapped f (p : producer) : producer =
 fun () -> match p () with None -> None | Some b -> Some (Array.map f b)

(* Stream [input]; each row yields zero or more output rows through
   [emit push row].  Output batches are cut once they reach [batch_rows]
   rows (a row's outputs are never split). *)
let flat_map (emit : (Tuple.t -> unit) -> Tuple.t -> unit) (input : producer) :
    producer =
  let out = ref (Array.make batch_rows [||]) and n = ref 0 in
  let push t =
    if !n = Array.length !out then begin
      let bigger = Array.make (2 * !n) [||] in
      Array.blit !out 0 bigger 0 !n;
      out := bigger
    end;
    !out.(!n) <- t;
    incr n
  in
  let take () =
    let b = Array.sub !out 0 !n in
    n := 0;
    Some b
  in
  let cur = ref [||] and pos = ref 0 in
  let rec pull () =
    if !pos < Array.length !cur then begin
      let row = !cur.(!pos) in
      incr pos;
      emit push row;
      if !n >= batch_rows then take () else pull ()
    end
    else
      match input () with
      | Some b ->
          cur := b;
          pos := 0;
          pull ()
      | None ->
          cur := [||];
          if !n > 0 then take () else None
  in
  pull

(* Sorted input with adjacent duplicates removed. *)
let dedup_sorted (ts : Tuple.t array) : Tuple.t array =
  let out = ref [] in
  Array.iteri
    (fun i t -> if i = 0 || not (Tuple.equal t ts.(i - 1)) then out := t :: !out)
    ts;
  Array.of_list (List.rev !out)

(* Sort [ts] in place on output positions per [keys] ((position,
   ascending) pairs), stably. *)
let sort_output keys (ts : Tuple.t array) =
  let idx = Array.of_list (List.map fst keys)
  and asc = Array.of_list (List.map snd keys) in
  Array.stable_sort (fun a b -> Tuple.compare_on idx asc a b) ts

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

(* Do all predicates hold in [env]?  A caller builds a row's environment
   once and passes it to every predicate. *)
let rec all_true (fs : value_fn list) env =
  match fs with [] -> true | f :: rest -> truthy (f env) && all_true rest env

(* A predicate's result, without allocating: the two constants. *)
let v_true = Value.Bool true
let v_false = Value.Bool false
let bool b = if b then v_true else v_false

(* SQL comparison: any NULL operand yields false. *)
let compare_op op a b =
  if Value.is_null a || Value.is_null b then v_false
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
    bool r

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
(* Column pruning                                                       *)
(* ------------------------------------------------------------------ *)

(* A statement builds only the columns it uses.  Before compilation, each
   derived table's SELECT list is cut to the names its enclosing SELECTs
   reference ({!narrow_derived}); at compilation, each base-table FROM item
   decodes only the fields its SELECT references (a keep-mask, {!keep}),
   the rest reading as [Null] in their usual positions.  Pages, rows and
   index lookups are those of the unpruned statement. *)

(* The columns a SELECT references outside its FROM clause, each as
   (qualifier, base name): every column when its list has a [*]. *)
type refs = All_cols | Cols of (string option * string) list

(* A reference split the way [resolve] reads it: at the last dot of its
   full name. *)
let split_ref q c =
  match q with
  | Some _ when not (String.contains c '.') -> (q, c)
  | _ -> (
      let n = qualified q c in
      match String.rindex_opt n '.' with
      | None -> (None, n)
      | Some i -> (Some (String.sub n 0 i), String.sub n (i + 1) (String.length n - i - 1)))

(* Every column reference in an expression, recursing into subqueries
   whole: a subquery reaches enclosing FROM items by correlation. *)
let rec expr_refs acc (e : Ast.expr) =
  match e with
  | Lit _ | Param _ -> acc
  | Col (q, c) -> split_ref q c :: acc
  | Binop (_, a, b) -> expr_refs (expr_refs acc a) b
  | Not a | Is_null a | Is_not_null a -> expr_refs acc a
  | Between (a, lo, hi) -> expr_refs (expr_refs (expr_refs acc a) lo) hi
  | Greatest es | Least es -> List.fold_left expr_refs acc es
  | Agg (_, a) -> Option.fold ~none:acc ~some:(expr_refs acc) a
  | Scalar_subquery q | Exists q -> query_refs acc q
  | In_subquery (a, q) -> query_refs (expr_refs acc a) q

and query_refs acc = function
  | Ast.Select s ->
      List.fold_left
        (fun acc -> function Ast.Table _ -> acc | Ast.Derived (q, _) -> query_refs acc q)
        (select_refs acc s.items s) s.from
  | Ast.Union (a, b) | Ast.Union_all (a, b) -> query_refs (query_refs acc a) b

(* Outside the FROM clause, with [items] as the SELECT list. *)
and select_refs acc items (s : Ast.select) =
  let opt acc = Option.fold ~none:acc ~some:(expr_refs acc) in
  let acc =
    List.fold_left
      (fun acc -> function Ast.Star -> acc | Ast.Expr (e, _) -> expr_refs acc e)
      acc items
  in
  let acc = List.fold_left expr_refs (opt (opt acc s.where) s.having) s.group_by in
  List.fold_left (fun acc (e, _) -> expr_refs acc e) acc s.order_by

let has_star items = List.exists (function Ast.Star -> true | Ast.Expr _ -> false) items

let refs_of items (s : Ast.select) =
  if has_star items then All_cols else Cols (select_refs [] items s)

(* Do [refs] reach column [name] of a FROM item qualified [qual]? *)
let refers refs ~qual name =
  match refs with
  | All_cols -> true
  | Cols cs ->
      List.exists
        (fun (q, c) ->
          String.equal c name
          && match q with None -> true | Some q -> String.equal q qual)
        cs

(* The keep-mask of a base-table FROM item: its SELECT's references. *)
let keep refs ~qual (table : Catalog.table) =
  Array.map
    (fun a -> refers refs ~qual (Schema.base_name a.Schema.name))
    (Tango_storage.Heap_file.schema table.file)

(* A SELECT is grouped when it has GROUP BY or an aggregate in its list or
   HAVING. *)
let grouped (s : Ast.select) =
  s.group_by <> []
  || List.exists
       (function Ast.Expr (e, _) -> Ast.contains_agg e | Ast.Star -> false)
       s.items
  || match s.having with Some h -> Ast.contains_agg h | None -> false

(* The name SELECT item [i] gets in the output schema. *)
let item_name i (e : Ast.expr) alias =
  match (alias, e) with
  | Some a, _ -> a
  | None, Col (_, c) -> c
  | None, Agg (f, _) -> Ast.aggfun_name f
  | None, _ -> "COL" ^ string_of_int (i + 1)

(* The items of derived SELECT [s] that the names in [need] (unqualified)
   reach, or that its own ORDER BY may name, each aliased to the name it
   had in the full list; at least one.  DISTINCT, a global aggregate and [*] keep their
   list whole: cutting them would change the rows. *)
let kept_items need (s : Ast.select) =
  if need = All_cols || s.distinct || has_star s.items || (s.group_by = [] && grouped s)
  then s.items
  else
    let order = Cols (List.fold_left (fun acc (e, _) -> expr_refs acc e) [] s.order_by) in
    let named =
      List.mapi
        (fun i -> function
          | Ast.Expr (e, a) -> (item_name i e a, e) | Ast.Star -> assert false)
        s.items
    in
    let kept =
      List.filter
        (fun (n, _) -> refers need ~qual:"" n || refers order ~qual:"" n)
        named
    in
    let kept =
      if kept = [] then List.filteri (fun i _ -> i = 0) named else kept
    in
    if List.length kept = List.length named then s.items
    else List.map (fun (n, e) -> Ast.Expr (e, Some n)) kept

let rec map_subqueries f (e : Ast.expr) : Ast.expr =
  let m = map_subqueries f in
  match e with
  | Lit _ | Param _ | Col _ -> e
  | Binop (op, a, b) -> Binop (op, m a, m b)
  | Not a -> Not (m a)
  | Is_null a -> Is_null (m a)
  | Is_not_null a -> Is_not_null (m a)
  | Between (a, lo, hi) -> Between (m a, m lo, m hi)
  | Greatest es -> Greatest (List.map m es)
  | Least es -> Least (List.map m es)
  | Agg (g, a) -> Agg (g, Option.map m a)
  | Scalar_subquery q -> Scalar_subquery (f q)
  | In_subquery (a, q) -> In_subquery (m a, f q)
  | Exists q -> Exists (f q)

(* Narrow every derived table's SELECT list to the names its enclosing
   SELECTs reference.  A derived query that occurs several times gets the
   union of its occurrences' needs, so its copies stay equal and still
   materialize once.  One rewriting walk records each derived query's
   needs as it goes; it repeats until a walk adds none, so the last walk
   rewrote every copy with the complete union.  Within a walk every copy
   of a derived query becomes one shared rewritten query: the memo of
   materialized derived tables is probed per outer row from a correlated
   subquery, and a physically equal key compares in constant time. *)
let narrow_derived (q : Ast.query) : Ast.query =
  let needs : (Ast.query, refs) Hashtbl.t = Hashtbl.create 8 in
  let rewritten : (Ast.query, Ast.query) Hashtbl.t = Hashtbl.create 8 in
  let grew = ref false in
  let add dq (n : refs) =
    match (Hashtbl.find_opt needs dq, n) with
    | Some All_cols, _ -> ()
    | None, _ | Some (Cols _), All_cols ->
        Hashtbl.replace needs dq n;
        grew := true
    | Some (Cols old), Cols ns -> (
        match List.filter (fun r -> not (List.mem r old)) ns with
        | [] -> ()
        | fresh ->
            Hashtbl.replace needs dq (Cols (List.sort_uniq compare fresh @ old));
            grew := true)
  in
  let rec query = function
    | Ast.Select s -> Ast.Select (select s.items s)
    | Ast.Union (a, b) -> Ast.Union (query a, query b)
    | Ast.Union_all (a, b) -> Ast.Union_all (query a, query b)
  and select items (s : Ast.select) : Ast.select =
    let refs = refs_of items s in
    let from_item = function
      | Ast.Table _ as t -> t
      | Ast.Derived (dq, alias) ->
          (* the names that may reach this derived table, unqualified *)
          add dq
            (match refs with
            | All_cols -> All_cols
            | Cols cs ->
                Cols
                  (List.filter_map
                     (fun (q, c) ->
                       match q with
                       | Some q when not (String.equal q alias) -> None
                       | _ -> Some (None, c))
                     cs));
          Ast.Derived (derived dq, alias)
    in
    let e = map_subqueries query in
    {
      s with
      items = List.map (function Ast.Star -> Ast.Star | Ast.Expr (x, a) -> Ast.Expr (e x, a)) items;
      from = List.map from_item s.from;
      where = Option.map e s.where;
      group_by = List.map e s.group_by;
      having = Option.map e s.having;
      order_by = List.map (fun (x, asc) -> (e x, asc)) s.order_by;
    }
  and derived dq =
    match Hashtbl.find_opt rewritten dq with
    | Some r -> r
    | None ->
        let r =
          match dq with
          | Ast.Select ds ->
              let need = Option.value (Hashtbl.find_opt needs dq) ~default:(Cols []) in
              Ast.Select (select (kept_items need ds) ds)
          | _ -> query dq
        in
        Hashtbl.replace rewritten dq r;
        r
  in
  let rec walk () =
    grew := false;
    Hashtbl.reset rewritten;
    let q' = query q in
    if !grew then walk () else q'
  in
  walk ()

(* ------------------------------------------------------------------ *)
(* Query compilation (mutually recursive with expressions)              *)
(* ------------------------------------------------------------------ *)

(* A compiled query maps the outer row stack to a batch producer. *)
type compiled_query = Tuple.t list -> producer

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
          deferred (fun () ->
              let ra = drain (fa rows) in
              let rb = drain (fb rows) in
              let all = Array.append ra rb in
              Array.stable_sort Tuple.compare all;
              of_array (dedup_sorted all)) )
  | Ast.Union_all (a, b) ->
      let sa, fa = compile_query ctx outer a in
      let sb, fb = compile_query ctx outer b in
      if not (Schema.union_compatible sa sb) then
        sql_error "UNION ALL arguments are not union-compatible";
      ( sa,
        fun rows ->
          let pa = fa rows and pb = deferred (fun () -> fb rows) in
          fun () -> match pa () with Some _ as b -> b | None -> pb () )

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
      fun rows -> bool (truthy (fa rows) && truthy (fb rows))
  | Binop (Ast.Or, a, b) ->
      let fa = recur a and fb = recur b in
      fun rows -> bool (truthy (fa rows) || truthy (fb rows))
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
      fun rows -> bool (not (truthy (fa rows)))
  | Is_null a ->
      let fa = recur a in
      fun rows -> bool (Value.is_null (fa rows))
  | Is_not_null a ->
      let fa = recur a in
      fun rows -> bool (not (Value.is_null (fa rows)))
  | Between (a, lo, hi) ->
      let fa = recur a and flo = recur lo and fhi = recur hi in
      fun rows ->
        let v = fa rows in
        bool
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
  (* Subqueries are evaluated to the end (no early exit for IN or
     EXISTS): the DBMS work a plan pays must not depend on where a match
     sits. *)
  | Scalar_subquery q -> (
      let _, fq = compile_query ctx schemas q in
      fun rows ->
        let r = drain (fq rows) in
        match Array.length r with
        | 0 -> Value.Null
        | 1 -> r.(0).(0)
        | n -> sql_error "scalar subquery returned %d rows" n)
  | In_subquery (a, q) ->
      let fa = recur a in
      let _, fq = compile_query ctx schemas q in
      fun rows ->
        let v = fa rows in
        let p = fq rows in
        let rec go found =
          match p () with
          | None -> found
          | Some b -> go (found || Array.exists (fun t -> Value.equal t.(0) v) b)
        in
        bool (go false)
  | Exists q ->
      let _, fq = compile_query ctx schemas q in
      fun rows ->
        let p = fq rows in
        let rec go found =
          match p () with None -> found | Some _ -> go true
        in
        bool (go false)

(* ---------------- FROM-item access paths ---------------- *)

(* A compiled FROM item: its (qualified) schema, a producer and, for a
   base table, the table with its keep-mask (the columns [refs] reach).  A
   derived table streams when [stream] holds (it is the only FROM item of
   a SELECT run once per statement) and its query occurs once in the
   statement; otherwise it is materialized once and memoized.  Derived
   tables cannot be correlated in this subset, so memoizing per statement
   is safe (Oracle-style view materialization). *)
and compile_table_ref ctx outer ~stream ~refs (tref : Ast.table_ref) :
    Schema.t * (Tuple.t list -> producer) * (Catalog.table * bool array) option =
  match tref with
  | Ast.Table (name, alias) ->
      let table = Catalog.find ctx.catalog name in
      let qual = Option.value alias ~default:name in
      let schema = Schema.qualify qual (Tango_storage.Heap_file.schema table.file) in
      let keep = keep refs ~qual table in
      ( schema,
        (fun _rows -> Tango_storage.Heap_file.scan_pages table.file ~keep),
        Some (table, keep) )
  | Ast.Derived (q, alias) ->
      let sub_schema, fq = compile_query ctx outer q in
      let schema = Schema.qualify alias (Schema.unqualify sub_schema) in
      let uses = Option.value ~default:0 (Hashtbl.find_opt ctx.derived_uses q) in
      Hashtbl.replace ctx.derived_uses q (uses + 1);
      ( schema,
        (fun rows ->
          if stream && Hashtbl.find ctx.derived_uses q = 1 then fq rows
          else
            deferred (fun () ->
                match Hashtbl.find_opt ctx.derived_cache q with
                | Some r -> of_array r
                | None ->
                    let r = drain (fq rows) in
                    Hashtbl.replace ctx.derived_cache q r;
                    of_array r)),
        None )

(* Try to use an index for a base-table FROM item given single-table
   conjuncts of the form <col> op <literal>.  Returns the index access
   (rows fetched by rid and re-checked against every conjunct, in batches)
   or [None] when no conjunct can drive an index. *)
and index_access ctx (table : Catalog.table) ~keep schema outer cands :
    (Tuple.t list -> producer) option =
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
      (* The driving conjunct is re-checked: range lookups for strict
         comparisons over-approximate (Lt via hi-bound includes equality).
         It comes first, as it did when it alone filtered the fetch. *)
      let checks =
        List.map (compile_expr ctx (schema :: outer))
          (e :: List.filter (fun c -> c != e) cands)
      in
      Some
        (fun rows ->
          deferred (fun () ->
              let rids =
                match op with
                | Eq -> Tango_storage.Ordered_index.lookup idx v
                | Lt | Le -> Tango_storage.Ordered_index.range idx ~hi:v ()
                | Gt | Ge -> Tango_storage.Ordered_index.range idx ~lo:v ()
                | _ -> [||]
              in
              (* fetch up to [batch_rows] rids per pull, the kept rows
                 collected in one reused array *)
              let kept = Array.make batch_rows [||] and next = ref 0 in
              let rec pull () =
                let start = !next in
                if start >= Array.length rids then None
                else begin
                  let stop = min (Array.length rids) (start + batch_rows) in
                  next := stop;
                  let n = ref 0 in
                  for k = start to stop - 1 do
                    let t = Tango_storage.Heap_file.fetch table.file ~keep rids.(k) in
                    if all_true checks (t :: rows) then begin
                      kept.(!n) <- t;
                      incr n
                    end
                  done;
                  if !n = 0 then pull () else Some (Array.sub kept 0 !n)
                end
              in
              pull))

(* ---------------- joins ---------------- *)

(* Sort-merge equi-join on one attribute pair; both inputs materialize and
   sort at the first pull, then the output streams, left-major within
   each run of equal keys.  [checks] filter concatenated candidates. *)
and merge_join rows (left : producer) (right : producer) l_idx r_idx checks :
    producer =
  deferred (fun () ->
      let ls = drain left in
      let rs = drain right in
      Array.stable_sort (fun a b -> Value.compare a.(l_idx) b.(l_idx)) ls;
      Array.stable_sort (fun a b -> Value.compare a.(r_idx) b.(r_idx)) rs;
      let nr = Array.length rs in
      (* first right row whose key is not below the current left key;
         NULL keys sort first on both sides and never match *)
      let j = ref 0 in
      flat_map
        (fun push lt ->
          let kv = lt.(l_idx) in
          if not (Value.is_null kv) then begin
            while !j < nr && Value.compare rs.(!j).(r_idx) kv < 0 do
              incr j
            done;
            let k = ref !j in
            while !k < nr && Value.compare rs.(!k).(r_idx) kv = 0 do
              let t = Tuple.concat lt rs.(!k) in
              if all_true checks (t :: rows) then push t;
              incr k
            done
          end)
        (of_array ls))

(* The right input materializes at the first pull; the left streams. *)
and nested_loop_join rows (left : producer) (right : producer) checks =
  deferred (fun () ->
      let rs = drain right in
      flat_map
        (fun push lt ->
          Array.iter
            (fun rt ->
              let t = Tuple.concat lt rt in
              if all_true checks (t :: rows) then push t)
            rs)
        left)

(* ---------------- SELECT ---------------- *)

and compile_select ctx (outer : Schema.t list) (s : Ast.select) :
    Schema.t * compiled_query =
  let open Ast in
  (* A conventional DBMS has no temporal SQL support -- that is what the
     middleware adds on top (paper Section 1). *)
  if s.validtime then
    sql_error "VALIDTIME is not supported by the DBMS; use the middleware";
  (* 1. FROM items; a lone one streams when this SELECT runs once per
     statement (it is not inside a subquery expression) *)
  let stream = outer = [] && List.length s.from = 1 in
  let refs = refs_of s.items s in
  let compiled_from = List.map (compile_table_ref ctx outer ~stream ~refs) s.from in
  let items = List.map (fun (schema, produce, _) -> (schema, produce)) compiled_from in
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
  (* 3. per-item sources with their single-table filters; a base table
     may use an index (only constant predicates can drive one) *)
  let compile_filters schema es =
    List.map (compile_expr ctx (schema :: outer)) es
  in
  let item_filters =
    List.map2 (fun (schema, _) tcs -> compile_filters schema tcs) items single_table
  in
  let sources =
    List.map2
      (fun (schema, produce, base) (table_conjuncts, fs) ->
        let filtered_source =
          match fs with
          | [] -> produce
          | fs -> fun rows -> filtered (fun t -> all_true fs (t :: rows)) (produce rows)
        in
        match base with
        | Some (table, keep) -> (
            match index_access ctx table ~keep schema outer table_conjuncts with
            | Some access -> access
            | None -> filtered_source)
        | None -> filtered_source)
      compiled_from
      (List.combine single_table item_filters)
  in
  (* Base-table info per FROM item, for index nested-loop joins: the
     catalog table and keep-mask plus its single-table filters, re-applied
     after an index probe. *)
  let base_infos =
    List.map2
      (fun (_, _, base) fs -> Option.map (fun (table, keep) -> (table, keep, fs)) base)
      compiled_from item_filters
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
  (* Left-deep joins over the FROM list, planned here once: each step
     takes the accumulated left producer to the joined one.  The right
     source is only opened by the methods that read it, so an index
     nested-loop probe of a base table never scans it. *)
  let join_step (acc_schema, remaining) (src, sch, base_info) =
    let new_schema = Schema.concat acc_schema sch in
    (* conjuncts now applicable *)
    let applicable, later = List.partition (touches new_schema) remaining in
    (* find an equi-join pair: acc.col = new.col *)
    let equi =
      List.find_map
        (fun e ->
          match e with
          | Binop (Eq, Col (q1, c1), Col (q2, c2)) -> (
              let n1 = qualified q1 c1 and n2 = qualified q2 c2 in
              match (Schema.index_opt acc_schema n1, Schema.index_opt sch n2) with
              | Some i1, Some i2 -> Some (e, i1, i2)
              | _ -> (
                  match
                    (Schema.index_opt acc_schema n2, Schema.index_opt sch n1)
                  with
                  | Some i1, Some i2 -> Some (e, i1, i2)
                  | _ -> None))
          | _ -> None)
        applicable
    in
    let all_checks = compile_filters new_schema applicable in
    (* the applicable conjuncts but the equi-join pair, which an index
       probe or a merge already enforces *)
    let other_checks =
      match equi with
      | Some (e, _, _) ->
          compile_filters new_schema (List.filter (fun c -> c != e) applicable)
      | None -> []
    in
    (* Index nested loop: when the new side is a base table with an index
       on its join attribute, probe it per accumulated tuple (the classic
       RBO choice) instead of materializing it. *)
    let probe =
      match (equi, base_info) with
      | Some (_, i1, i2), Some (table, keep, residual) -> (
          let attr = Schema.base_name (Schema.name_at sch i2) in
          match Catalog.index_on table attr with
          | Some idx -> Some (i1, idx, table, keep, residual)
          | None -> None)
      | _ -> None
    in
    let step rows (left : producer) : producer =
      match (ctx.settings.join_method, equi, probe) with
      | (Auto | Force_nested_loop), _, Some (i1, idx, (table : Catalog.table), keep, residual) ->
          flat_map
            (fun push (at : Tuple.t) ->
              let key = at.(i1) in
              if not (Value.is_null key) then
                Array.iter
                  (fun rid ->
                    let bt = Tango_storage.Heap_file.fetch table.file ~keep rid in
                    if all_true residual (bt :: rows) then begin
                      let t = Tuple.concat at bt in
                      if all_true other_checks (t :: rows) then push t
                    end)
                  (Tango_storage.Ordered_index.lookup idx key))
            left
      | Force_nested_loop, _, None | (Auto | Force_sort_merge), None, _ ->
          nested_loop_join rows left (src rows) all_checks
      | (Auto | Force_sort_merge), Some (_, i1, i2), _ ->
          (* key indexes are relative to each input: [i1] into the
             accumulated left, [i2] into the new right *)
          merge_join rows left (src rows) i1 i2 other_checks
    in
    ((new_schema, later), step)
  in
  let join_all : compiled_query =
    match (sources, from_schemas) with
    | [], _ -> fun _ -> of_array [| [||] |]
    | [ src ], _ -> src
    | _ :: _ :: _, ([] | [ _ ]) -> assert false
    | src0 :: srest, s0 :: srest_schemas ->
        let base_infos_tail = List.tl base_infos in
        let _, steps =
          List.fold_left_map join_step (s0, join_conjuncts)
            (List.map2
               (fun (src, sch) bi -> (src, sch, bi))
               (List.combine srest srest_schemas)
               base_infos_tail)
        in
        fun rows ->
          List.fold_left (fun left step -> step rows left) (src0 rows) steps
  in
  (* 4. top-level filter (incl. subquery conjuncts) *)
  let top_filters = compile_filters combined_schema top_conjuncts in
  let join_all =
    if top_filters = [] then join_all
    else fun rows ->
      filtered (fun t -> all_true top_filters (t :: rows)) (join_all rows)
  in
  (* 5. projection/grouping *)
  let grouped = grouped s in
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
    if not grouped then
      compile_plain ctx outer s combined_schema items_expanded out_schema
        join_all
    else
      compile_grouped ctx outer s combined_schema items_expanded out_schema
        join_all
  in
  (out_schema, compiled)

and compile_plain ctx outer (s : Ast.select) combined_schema items out_schema
    join_all : compiled_query =
  let open Ast in
  let schemas = combined_schema :: outer in
  let item_fns =
    Array.of_list
      (List.map
         (function
           | Expr (e, _) -> compile_expr ctx schemas e
           | Star -> assert false)
         items)
  in
  (* Every input column, in order: the input row is the output row. *)
  let passthrough =
    List.length items = Schema.arity combined_schema
    && List.for_all Fun.id
         (List.mapi
            (fun i item ->
              match item with
              | Expr (Col (q, c), _) -> resolve [ combined_schema ] q c = Some (0, i)
              | _ -> false)
            items)
  in
  let width = Array.length item_fns in
  let project rows (t : Tuple.t) : Tuple.t =
    let env = t :: rows in
    let out = Array.make width Value.Null in
    for i = 0 to width - 1 do
      out.(i) <- item_fns.(i) env
    done;
    out
  in
  (* ORDER BY: prefer output-schema resolution (aliases), fall back to the
     pre-projection schema. *)
  let order_plan =
    List.map
      (fun (e, asc) ->
        match e with
        | Col (q, c) when Schema.index_opt out_schema (qualified q c) <> None ->
            `Output (Schema.index out_schema (qualified q c), asc)
        | _ -> `Input (compile_expr ctx schemas e, asc))
      s.order_by
  in
  let input_keys =
    List.filter_map (function `Input (f, asc) -> Some (f, asc) | _ -> None)
      order_plan
  in
  let output_keys =
    List.filter_map
      (function `Output (i, asc) -> Some (i, asc) | _ -> None)
      order_plan
  in
  let key_fns = Array.of_list (List.map fst input_keys) in
  let key_idx = Array.init (Array.length key_fns) Fun.id
  and key_asc = Array.of_list (List.map snd input_keys) in
  (* Sort on input-resolved keys first (stable), carry through projection,
     then sort on output-resolved keys. *)
  let sort_input rows input =
    deferred (fun () ->
        let keyed =
          Array.map
            (fun t ->
              let env = t :: rows in
              (Array.map (fun f -> f env) key_fns, t))
            (drain input)
        in
        Array.stable_sort
          (fun (ka, _) (kb, _) -> Tuple.compare_on key_idx key_asc ka kb)
          keyed;
        of_array (Array.map snd keyed))
  in
  fun rows ->
    let input = join_all rows in
    let input = if input_keys = [] then input else sort_input rows input in
    let projected = if passthrough then input else mapped (project rows) input in
    let projected =
      if not s.distinct then projected
      else
        deferred (fun () ->
            let ts = drain projected in
            Array.stable_sort Tuple.compare ts;
            of_array (dedup_sorted ts))
    in
    if output_keys = [] then projected
    else
      deferred (fun () ->
          let ts = drain projected in
          sort_output output_keys ts;
          of_array ts)

and compile_grouped ctx outer (s : Ast.select) combined_schema items
    out_schema join_all : compiled_query =
  let open Ast in
  let schemas = combined_schema :: outer in
  let group_fns = Array.of_list (List.map (compile_expr ctx schemas) s.group_by) in
  let group_idx = Array.init (Array.length group_fns) Fun.id in
  let group_asc = Array.make (Array.length group_fns) true in
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
        fun members rows -> bool (not (truthy (fa members rows)))
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
    | And -> bool (truthy va && truthy vb)
    | Or -> bool (truthy va || truthy vb)
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
    deferred (fun () ->
        (* Sort-based grouping on the group-by key values. *)
        let keyed =
          Array.map
            (fun t ->
              let env = t :: rows in
              (Array.map (fun f -> f env) group_fns, t))
            (drain (join_all rows))
        in
        let cmp_key ka kb = Tuple.compare_on group_idx group_asc ka kb in
        Array.stable_sort (fun (ka, _) (kb, _) -> cmp_key ka kb) keyed;
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
        let out =
          Array.of_list
            (List.filter_map
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
               groups)
        in
        if order_keys <> [] then sort_output order_keys out;
        of_array out)

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let c_queries = Tango_obs.Counter.make "dbms.queries"
let c_rows = Tango_obs.Counter.make "dbms.rows_returned"

type stream = {
  schema : Schema.t;
  mutable pull : producer option;  (** [None] once exhausted or closed *)
  mutable rows : int;  (** rows handed out so far *)
  traced : bool;  (** a trace was being collected when it opened *)
  mutable elapsed_us : float;  (** executor time so far, kept when traced *)
}

(* The statement's one [dbms.query] span: its executor time summed over
   compilation and every pull, grafted when the statement ends. *)
let end_span ~elapsed_us ~rows =
  Tango_obs.Trace.graft
    (Tango_obs.Trace.make ~elapsed_us
       ~attrs:[ ("rows", Tango_obs.Trace.Int rows) ]
       "dbms.query")

let finish s =
  s.pull <- None;
  if s.traced then end_span ~elapsed_us:s.elapsed_us ~rows:s.rows

let open_query ?(settings = default_settings ()) catalog (q : Ast.query) :
    stream =
  Tango_obs.Counter.incr c_queries;
  let traced = Tango_obs.Trace.active () in
  let t0 = if traced then Tango_obs.mono_us () else 0.0 in
  let since_open () = if traced then Tango_obs.mono_us () -. t0 else 0.0 in
  match compile_query (make_ctx settings catalog) [] (narrow_derived q) with
  | exception e ->
      if traced then end_span ~elapsed_us:(since_open ()) ~rows:0;
      raise e
  | schema, f ->
      let pull = f [] in
      { schema; pull = Some pull; rows = 0; traced; elapsed_us = since_open () }

let next_batch s =
  match s.pull with
  | None -> None
  | Some pull -> (
      let t0 = if s.traced then Tango_obs.mono_us () else 0.0 in
      let r = pull () in
      if s.traced then s.elapsed_us <- s.elapsed_us +. (Tango_obs.mono_us () -. t0);
      match r with
      | Some b ->
          let n = Array.length b in
          s.rows <- s.rows + n;
          Tango_obs.Counter.add c_rows n;
          r
      | None ->
          finish s;
          None)

let close s = if s.pull <> None then finish s

(** Execute a query AST against a catalog, materializing its result. *)
let run_query ?settings catalog (q : Ast.query) : Relation.t =
  let s = open_query ?settings catalog q in
  let rec go acc =
    match next_batch s with
    | Some b -> go (b :: acc)
    | None -> Array.concat (List.rev acc)
  in
  Relation.make s.schema (Fun.protect ~finally:(fun () -> close s) (fun () -> go []))
