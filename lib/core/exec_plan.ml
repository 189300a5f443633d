(** Execution-ready plans (paper Figure 5).

    A chosen physical plan is translated into a middleware pipeline whose
    leaves are `TRANSFER^M` algorithms holding SQL for the DBMS-resident
    parts.  A `TRANSFER^M` may depend on `TRANSFER^D` steps that first
    materialize middleware results into uniquely-named DBMS temp tables (the
    dashed "algorithm sequence" edges in the paper's figure); dependencies
    run during the transfer's [init].

    Execution is instrumented: every node records wall time and tuples
    produced, and bytes produced when something will read them (the
    trace, or profiling's cost-factor adaptation).  The instrumentation
    costs a meter snapshot per batch, plus an int sum per tuple when
    bytes are counted, so it is cheap as long as producers fill their
    batches. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_volcano
open Tango_xxl
open Tango_dbms

type node = {
  kind : kind;
  schema : Schema.t;  (** output schema *)
  mutable elapsed_us : float;  (** measured during the last execution *)
  mutable out_bytes : float;
  mutable out_tuples : int;
  mutable page_reads : int;  (** inclusive: DBMS pages read while running *)
  mutable roundtrips : int;  (** inclusive: boundary round trips while running *)
}

and kind =
  | Transfer_m of { sql : Ast.query; deps : dep list }
  | Scatter of {
      sql : Ast.query;
      deps : dep list;
      shard_names : string list;
      merge_order : Order.t;  (** the DBMS subtree's output order *)
    }
      (** partition-aware transfer: the same SQL on each named shard,
          per-shard streams combined by an ordered {!Tango_xxl.Gather}
          merge *)
  | Filter of Ast.expr * node
  | Project of (Ast.expr * string) list * node
  | Sort of Order.t * node
  | Sort_noop of node
  | Merge_join of {
      pred : Ast.expr;
      left_keys : string list;
      right_keys : string list;
      left : node;
      right : node;
    }
  | Tjoin of {
      pred : Ast.expr;
      left_keys : string list;
      right_keys : string list;
      left : node;
      right : node;
    }
  | Taggr of { group_by : string list; aggs : Op.agg list; arg : node }
  | Dupelim of node
  | Coalesce of node
  | Difference of node * node

and dep = { table : string; source : node }

exception Unbuildable of string

let unbuildable fmt = Format.kasprintf (fun s -> raise (Unbuildable s)) fmt

(* ------------------------------------------------------------------ *)
(* Building from a physical plan                                        *)
(* ------------------------------------------------------------------ *)

type build_ctx = {
  mutable temp_names : (Op.t * string) list;  (* To_db op -> temp table *)
  db : Database.t;
}

let temp_name_of ctx (op : Op.t) : string =
  match List.assoc_opt op ctx.temp_names with
  | Some n -> n
  | None ->
      let n = Database.fresh_temp_name ctx.db in
      ctx.temp_names <- (op, n) :: ctx.temp_names;
      n

let mk kind schema =
  {
    kind;
    schema;
    elapsed_us = 0.0;
    out_bytes = 0.0;
    out_tuples = 0;
    page_reads = 0;
    roundtrips = 0;
  }

(** Build an execution-ready plan from a middleware-resident physical
    plan.  Each node's schema is derived one level from its built
    children's (a DBMS subtree's by the translator, which derives each of
    its nodes' once). *)
let rec build ctx (plan : Physical.plan) : node =
  let mk_step kind args =
    mk kind
      (Op.schema_step plan.Physical.op (List.map (fun n -> n.schema) args))
  in
  (* Translate a DBMS subtree to SQL; its TRANSFER^D leaves become
     dependencies executed first. *)
  let translate_db_child (db_child : Physical.plan) =
    let tds = Physical.collect_tds db_child in
    let deps =
      List.map
        (fun (td : Physical.plan) ->
          match (td.Physical.op, td.Physical.children) with
          | Op.To_db _, [ mw_child ] ->
              { table = temp_name_of ctx td.Physical.op; source = build ctx mw_child }
          | _ -> unbuildable "malformed TRANSFER^D plan node")
        tds
    in
    let sql, db_schema =
      Tango_sqlgen.Translate.translate_with_schema
        ~temp_name:(fun op -> temp_name_of ctx op)
        db_child.Physical.op
    in
    (sql, deps, Op.schema_step plan.Physical.op [ db_schema ])
  in
  match (plan.Physical.algorithm, plan.Physical.children) with
  | Physical.Transfer_m_algo, [ db_child ] ->
      let sql, deps, schema = translate_db_child db_child in
      mk (Transfer_m { sql; deps }) schema
  | Physical.Scatter_gather_m, [ db_child ] ->
      let sql, deps, schema = translate_db_child db_child in
      mk
        (Scatter
           {
             sql;
             deps;
             shard_names = plan.Physical.shards;
             merge_order = db_child.Physical.out_order;
           })
        schema
  | Physical.Filter_m, [ c ] -> (
      match plan.Physical.op with
      | Op.Select { pred; _ } ->
          let cn = build ctx c in
          mk_step (Filter (pred, cn)) [ cn ]
      | _ -> unbuildable "filter algorithm on a non-select")
  | Physical.Project_m, [ c ] -> (
      match plan.Physical.op with
      | Op.Project { items; _ } ->
          let cn = build ctx c in
          mk_step (Project (items, cn)) [ cn ]
      | _ -> unbuildable "project algorithm on a non-project")
  | Physical.Sort_m, [ c ] -> (
      match plan.Physical.op with
      | Op.Sort { order; _ } ->
          let cn = build ctx c in
          mk_step (Sort (order, cn)) [ cn ]
      | _ -> unbuildable "sort algorithm on a non-sort")
  | Physical.Sort_passthrough, [ c ] ->
      let cn = build ctx c in
      mk_step (Sort_noop cn) [ cn ]
  | Physical.Merge_join_m, [ l; r ] | Physical.Tjoin_m, [ l; r ] -> (
      let temporal = plan.Physical.algorithm = Physical.Tjoin_m in
      let pred =
        match plan.Physical.op with
        | Op.Join { pred; _ } | Op.Temporal_join { pred; _ } -> pred
        | _ -> unbuildable "join algorithm on a non-join"
      in
      let ln = build ctx l and rn = build ctx r in
      let sl = ln.schema and sr = rn.schema in
      match Rules.equi_pair sl sr pred with
      | None -> unbuildable "middleware merge join without an equi key"
      | Some (ja1, ja2) ->
          let lk = [ ja1 ] and rk = [ ja2 ] in
          (* The merge enforces the equality it keys on (NULL keys never
             match), so only the other conjuncts remain to check. *)
          let pred =
            let rec drop = function
              | [] -> []
              | c :: cs ->
                  if Rules.equi_pair sl sr c = Some (ja1, ja2) then cs
                  else c :: drop cs
            in
            Option.value
              (Ast.conj (drop (Ast.conjuncts pred)))
              ~default:(Ast.Lit (Value.Bool true))
          in
          if temporal then
            mk_step
              (Tjoin { pred; left_keys = lk; right_keys = rk; left = ln; right = rn })
              [ ln; rn ]
          else
            mk_step
              (Merge_join
                 { pred; left_keys = lk; right_keys = rk; left = ln; right = rn })
              [ ln; rn ])
  | Physical.Taggr_m, [ c ] -> (
      match plan.Physical.op with
      | Op.Temporal_aggregate { group_by; aggs; _ } ->
          let cn = build ctx c in
          mk_step (Taggr { group_by; aggs; arg = cn }) [ cn ]
      | _ -> unbuildable "taggr algorithm on a non-taggr")
  | Physical.Dupelim_m, [ c ] ->
      let cn = build ctx c in
      mk_step (Dupelim cn) [ cn ]
  | Physical.Coalesce_m, [ c ] ->
      let cn = build ctx c in
      mk_step (Coalesce cn) [ cn ]
  | Physical.Difference_m, [ l; r ] ->
      (* the right input first, as the plan was always built: temp
         tables keep their numbering *)
      let rn = build ctx r in
      let ln = build ctx l in
      mk_step (Difference (ln, rn)) [ ln; rn ]
  | algo, _ ->
      unbuildable "algorithm %s cannot head a middleware pipeline"
        (Physical.algorithm_name algo)

(** Entry point: [of_physical db plan] for a middleware-resident root. *)
let of_physical (db : Database.t) (plan : Physical.plan) : node * string list =
  let ctx = { temp_names = []; db } in
  let node = build ctx plan in
  (node, List.map snd ctx.temp_names)

(* ------------------------------------------------------------------ *)
(* Cursor construction: transfer sharing                                *)
(* ------------------------------------------------------------------ *)

(* The paper's Section 7 refinement: "if a query is to access the same DBMS
   relation twice (even if the projected attributes are different), it
   would be beneficial to issue only one T^M operation."  Two TRANSFER^M
   SQL statements that are alpha-equivalent (identical up to the renaming
   of table aliases, which also flows into sanitized output column names)
   produce positionally identical tuples, so the second can reuse the
   first's fetched rows without another round trip.

   Alpha-normalization: rename table aliases in first-FROM-occurrence
   order to canonical a0, a1, ...; rewrite qualified column references and
   alias-prefixed output names ("A__K" -> "a0__K") accordingly. *)

let alpha_normalize (q : Ast.query) : Ast.query =
  let mapping : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let counter = ref 0 in
  let canon alias =
    match Hashtbl.find_opt mapping alias with
    | Some c -> c
    | None ->
        let c = Printf.sprintf "a%d" !counter in
        incr counter;
        Hashtbl.replace mapping alias c;
        c
  in
  let rename_name (name : string) =
    (* output names embed the alias as a sanitized prefix *)
    match String.index_opt name '_' with
    | Some i when i + 1 < String.length name && name.[i + 1] = '_' ->
        let prefix = String.sub name 0 i in
        (match Hashtbl.find_opt mapping prefix with
        | Some c -> c ^ String.sub name i (String.length name - i)
        | None -> name)
    | _ -> name
  in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Lit _ | Ast.Param _ -> e
    | Ast.Col (Some q, c) -> (
        match Hashtbl.find_opt mapping q with
        | Some cq -> Ast.Col (Some cq, rename_name c)
        | None -> Ast.Col (Some q, rename_name c))
    | Ast.Col (None, c) -> Ast.Col (None, rename_name c)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, expr a, expr b)
    | Ast.Not a -> Ast.Not (expr a)
    | Ast.Is_null a -> Ast.Is_null (expr a)
    | Ast.Is_not_null a -> Ast.Is_not_null (expr a)
    | Ast.Between (a, b, c) -> Ast.Between (expr a, expr b, expr c)
    | Ast.Greatest es -> Ast.Greatest (List.map expr es)
    | Ast.Least es -> Ast.Least (List.map expr es)
    | Ast.Agg (f, a) -> Ast.Agg (f, Option.map expr a)
    | Ast.Scalar_subquery sq -> Ast.Scalar_subquery (query sq)
    | Ast.In_subquery (a, sq) -> Ast.In_subquery (expr a, query sq)
    | Ast.Exists sq -> Ast.Exists (query sq)
  and table_ref = function
    | Ast.Table (t, Some a) -> Ast.Table (t, Some (canon a))
    | Ast.Table (t, None) -> Ast.Table (t, None)
    | Ast.Derived (sq, a) -> Ast.Derived (query sq, canon a)
  and item = function
    | Ast.Star -> Ast.Star
    | Ast.Expr (e, alias) -> Ast.Expr (expr e, Option.map rename_name alias)
  and query (q : Ast.query) =
    match q with
    | Ast.Union (a, b) -> Ast.Union (query a, query b)
    | Ast.Union_all (a, b) -> Ast.Union_all (query a, query b)
    | Ast.Select sel ->
        (* visit FROM first so aliases are bound before references *)
        let from = List.map table_ref sel.Ast.from in
        Ast.Select
          {
            sel with
            Ast.from;
            items = List.map item sel.Ast.items;
            where = Option.map expr sel.Ast.where;
            group_by = List.map expr sel.Ast.group_by;
            having = Option.map expr sel.Ast.having;
            order_by = List.map (fun (e, asc) -> (expr e, asc)) sel.Ast.order_by;
          }
  in
  query q

(** A per-execution context; when [share_transfers] is set, alpha-equivalent
    dependency-free `TRANSFER^M` statements are fetched once; when
    [count_bytes] is set, nodes count the bytes they produce. *)
type run_ctx = {
  topology : Topology.t;
  share_transfers : bool;
  count_bytes : bool;
  fetched : (Ast.query * string list, Relation.t) Hashtbl.t;
      (** keyed by normalized SQL {e and} the shard list: a scatter and a
          single-backend transfer of the same statement read different
          data *)
}

let run_ctx ?(share_transfers = true) ~count_bytes topology =
  { topology; share_transfers; count_bytes; fetched = Hashtbl.create 4 }

(* The storage layer's page-read counter and the run's backend meters,
   snapshotted around each node's init/next_batch to attribute inclusive
   page reads and boundary round trips to operators (same inclusive
   convention as [elapsed_us]). *)
let c_page_reads = Tango_obs.Counter.make "storage.page_reads"

(* Bytes of a batch, summed into an int: the per-tuple part of a node's
   accounting, kept free of closures and float boxing. *)
let batch_bytes (b : Tuple.t array) =
  let s = ref 0 in
  for i = 0 to Array.length b - 1 do
    s := !s + Tuple.byte_size b.(i)
  done;
  !s

(* Wrap a cursor with per-node instrumentation.  Everything is paid once
   per batch (a meter snapshot and one add per counter) except the byte
   count, which reads every tuple of the batch and so runs only when the
   context counts bytes. *)
let instrument (ctx : run_ctx) (n : node) (c : Cursor.t) : Cursor.t =
  n.elapsed_us <- 0.0;
  n.out_bytes <- 0.0;
  n.out_tuples <- 0;
  n.page_reads <- 0;
  n.roundtrips <- 0;
  let backends = Topology.backends ctx.topology in
  let roundtrips () =
    List.fold_left (fun acc b -> acc + Backend.roundtrips b) 0 backends
  in
  (* Snapshot the meters around [f] and attribute the deltas. *)
  let measured f =
    let t0 = Tango_obs.mono_us () in
    let pr0 = Tango_obs.Counter.value c_page_reads in
    let rt0 = roundtrips () in
    let r = f () in
    n.page_reads <- n.page_reads + Tango_obs.Counter.value c_page_reads - pr0;
    n.roundtrips <- n.roundtrips + roundtrips () - rt0;
    n.elapsed_us <- n.elapsed_us +. (Tango_obs.mono_us () -. t0);
    r
  in
  let init () = Cursor.init c and pull () = Cursor.next_batch c in
  Cursor.make ~schema:(Cursor.schema c)
    ~init:(fun () -> measured init)
    ~next_batch:(fun () ->
      let r = measured pull in
      (match r with
      | Some b ->
          n.out_tuples <- n.out_tuples + Array.length b;
          if ctx.count_bytes then
            n.out_bytes <- n.out_bytes +. float_of_int (batch_bytes b)
      | None -> ());
      r)

(* Rename a cursor's schema to the sanitized temp-table column names. *)
let with_schema schema (c : Cursor.t) : Cursor.t =
  Cursor.make ~schema
    ~init:(fun () -> Cursor.init c)
    ~next_batch:(fun () -> Cursor.next_batch c)

let rec build_cursor (ctx : run_ctx) (n : node) : Cursor.t =
  let c =
    match n.kind with
    | Transfer_m { sql; deps } ->
        transfer_cursor ctx n ~sql ~deps ~shard_key:[]
          (Transfer.transfer_m
             (Topology.primary ctx.topology)
             ~schema:n.schema sql)
    | Scatter { sql; deps; shard_names; merge_order } ->
        let sources =
          List.map
            (fun name ->
              match Topology.find ctx.topology name with
              | Some b -> Transfer.transfer_m b ~schema:n.schema sql
              | None -> unbuildable "scatter names unknown shard %s" name)
            shard_names
        in
        transfer_cursor ctx n ~sql ~deps ~shard_key:shard_names
          (Gather.merge ~order:merge_order ~names:shard_names ~schema:n.schema
             sources)
    | Filter (pred, arg) -> Basic_ops.filter pred (build_cursor ctx arg)
    | Project (items, arg) -> Basic_ops.project items (build_cursor ctx arg)
    | Sort (order, arg) -> Sort.sort order (build_cursor ctx arg)
    | Sort_noop arg -> build_cursor ctx arg
    | Merge_join { pred; left_keys; right_keys; left; right } ->
        Joins.merge_join ~pred ~left_keys ~right_keys (build_cursor ctx left)
          (build_cursor ctx right)
    | Tjoin { pred; left_keys; right_keys; left; right } ->
        Joins.temporal_merge_join ~pred ~left_keys ~right_keys
          (build_cursor ctx left) (build_cursor ctx right)
    | Taggr { group_by; aggs; arg } ->
        Taggr.taggr ~group_by ~aggs (build_cursor ctx arg)
    | Dupelim arg -> Dup_elim.dup_elim (build_cursor ctx arg)
    | Coalesce arg -> Dup_elim.coalesce (build_cursor ctx arg)
    | Difference (l, r) ->
        Dup_elim.difference (build_cursor ctx l) (build_cursor ctx r)
  in
  instrument ctx n c

and transfer_cursor ctx (n : node) ~sql ~deps ~shard_key (tm : Cursor.t) :
    Cursor.t =
  let shared_key =
    if ctx.share_transfers && deps = [] then
      Some (alpha_normalize sql, shard_key)
    else None
  in
  let replay : Cursor.t option ref = ref None in
  Cursor.make ~schema:n.schema
    ~init:(fun () ->
      match shared_key with
      | Some key when Hashtbl.mem ctx.fetched key ->
          (* alpha-equivalent statement already fetched from the same
             shard set: replay its rows, skipping the DBMS and the wire *)
          let r = Hashtbl.find ctx.fetched key in
          let c = Cursor.of_relation (Relation.make n.schema (Relation.tuples r)) in
          Cursor.init c;
          replay := Some c
      | Some key ->
          List.iter (fun dep -> run_dep ctx dep) deps;
          Cursor.init tm;
          (* drain eagerly so the rows are shareable *)
          let rows = Cursor.drain tm in
          let r = Relation.of_list n.schema rows in
          Hashtbl.replace ctx.fetched key r;
          let c = Cursor.of_relation r in
          Cursor.init c;
          replay := Some c
      | None ->
          List.iter (fun dep -> run_dep ctx dep) deps;
          Cursor.init tm;
          replay := None)
    ~next_batch:(fun () ->
      match !replay with
      | Some c -> Cursor.next_batch c
      | None -> Cursor.next_batch tm)

and run_dep ctx dep =
  (* temp tables referenced from shard-local SQL must exist everywhere:
     replicate the middleware result to every backend *)
  let backends = Topology.backends ctx.topology in
  List.iter (fun b -> Transfer.drop_temp_table b dep.table) backends;
  let source = build_cursor ctx dep.source in
  let sanitized = Tango_sqlgen.Translate.temp_table_schema dep.source.schema in
  let td =
    Transfer.transfer_d_all backends ~table:dep.table
      (with_schema sanitized source)
  in
  Cursor.init td

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let kind_name (n : node) =
  match n.kind with
  | Transfer_m _ -> "TRANSFER^M"
  | Scatter _ -> "SCATTER^M"
  | Filter _ -> "FILTER^M"
  | Project _ -> "PROJECT^M"
  | Sort _ -> "SORT^M"
  | Sort_noop _ -> "SORT(noop)"
  | Merge_join _ -> "MERGEJOIN^M"
  | Tjoin _ -> "TJOIN^M"
  | Taggr _ -> "TAGGR^M"
  | Dupelim _ -> "DUPELIM^M"
  | Coalesce _ -> "COALESCE^M"
  | Difference _ -> "DIFFERENCE^M"

let children (n : node) : node list =
  match n.kind with
  | Transfer_m { deps; _ } | Scatter { deps; _ } ->
      List.map (fun d -> d.source) deps
  | Filter (_, a) | Project (_, a) | Sort (_, a) | Sort_noop a
  | Taggr { arg = a; _ } | Dupelim a | Coalesce a ->
      [ a ]
  | Merge_join { left; right; _ } | Tjoin { left; right; _ }
  | Difference (left, right) ->
      [ left; right ]

let rec iter f (n : node) =
  f n;
  List.iter (iter f) (children n)

(** Convert an executed (measured) plan into a {!Tango_obs.Trace} span
    subtree — one span per operator, carrying the measured wall time,
    tuples and bytes produced, and inclusive page reads / round trips. *)
let rec to_trace (n : node) : Tango_obs.Trace.span =
  let open Tango_obs.Trace in
  make (kind_name n) ~elapsed_us:n.elapsed_us
    ~attrs:
      [
        ("tuples", Int n.out_tuples);
        ("bytes", Int (int_of_float n.out_bytes));
        ("page_reads", Int n.page_reads);
        ("roundtrips", Int n.roundtrips);
      ]
    ~children:(List.map to_trace (children n))

let rec pp ?(indent = 0) ppf (n : node) =
  let pp_deps deps =
    List.iter
      (fun d ->
        Fmt.pf ppf "%s  after loading %s via TRANSFER^D:@."
          (String.make indent ' ') d.table;
        pp ~indent:(indent + 4) ppf d.source)
      deps
  in
  (match n.kind with
  | Transfer_m { sql; deps } ->
      Fmt.pf ppf "%sTRANSFER^M@.%s  SQL: %s@." (String.make indent ' ')
        (String.make indent ' ')
        (Printer.query_to_sql sql);
      pp_deps deps
  | Scatter { sql; deps; shard_names; _ } ->
      Fmt.pf ppf "%sSCATTER^M {%s}@.%s  SQL: %s@." (String.make indent ' ')
        (String.concat "," shard_names)
        (String.make indent ' ')
        (Printer.query_to_sql sql);
      pp_deps deps
  | _ ->
      Fmt.pf ppf "%s%s@." (String.make indent ' ') (kind_name n);
      List.iter (pp ~indent:(indent + 2) ppf) (children n))

let to_string n = Fmt.str "%a" (pp ~indent:0) n
