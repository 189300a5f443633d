(* The traced run's decomposition of one read: after [Middleware.query]
   answered it, the same work is redone as timed calls into each layer's
   public functions, in the order the pipeline runs them, and charged to
   the layer.  Only the work the pipeline really did for the op is
   charged: a plan-cache hit skips parse, compile and optimize.  The
   replayed result must equal the pipeline's. *)

open Tango_rel
open Tango_core
module Physical = Tango_volcano.Physical
module Backend = Tango_dbms.Backend
module Runtime = Tango_obs.Runtime

type t = {
  mw : Middleware.t;
  layers : Layers.t;
  templates : (string, Physical.plan) Hashtbl.t;
      (** template text -> the generic plan the plan cache holds for it *)
}

let create mw layers = { mw; layers; templates = Hashtbl.create 16 }

(* Statistics changed (a write): cached template plans are stale, as the
   session's own plan cache is. *)
let forget_plans t = Hashtbl.reset t.templates

(* A read as a client submits it: raw text ([params = []], through
   [Middleware.query]) or text with bind variables and their values
   (through [Middleware.query_params]). *)
type read = { sql : string; params : Value.t list }

let run_read mw (r : read) =
  match r.params with
  | [] -> Middleware.query mw r.sql
  | ps -> Middleware.query_params mw r.sql ps

let pool_hits = Tango_obs.Counter.make "storage.pool_hits"
let pool_misses = Tango_obs.Counter.make "storage.pool_misses"

(* TRANSFER^D nodes inside a DBMS subtree, in the order
   [Exec_plan.of_physical] turns them into dependencies. *)
let rec transfer_d_nodes (p : Physical.plan) =
  match p.Physical.algorithm with
  | Physical.Transfer_d_algo -> [ p ]
  | _ -> List.concat_map transfer_d_nodes p.Physical.children

(* DBMS subtrees below the plan's transfers and scatters. *)
let rec dbms_subtrees (p : Physical.plan) =
  match (p.Physical.algorithm, p.Physical.children) with
  | (Physical.Transfer_m_algo | Physical.Scatter_gather_m), [ db ] ->
      db :: List.concat_map (fun td -> List.concat_map dbms_subtrees td.Physical.children)
              (transfer_d_nodes db)
  | _ -> List.concat_map dbms_subtrees p.Physical.children

(* Replay [r], which [report] answered, as op [op]; returns the replayed
   result and the summed layer self-times charged to the op (µs). *)
let read t ~op (r : read) (report : Middleware.report) : Relation.t * float =
  let l = t.layers in
  let start = Common.mono_us () in
  let parent = Layers.fresh_id l in
  let span layer f = Layers.span l ~op ~parent layer f in
  let charged = ref 0.0 in
  let charge key us =
    Layers.add l key us;
    charged := !charged +. us
  in
  let config = Middleware.config t.mw in
  let cls =
    match report.Middleware.cache with
    | Some c -> c.Middleware.cache_class
    | None -> "miss"
  in
  (* 1. auto-parameterization decides what the pipeline compiles *)
  let text, values =
    match r.params with
    | _ :: _ -> (r.sql, Some (Array.of_list r.params))
    | [] ->
        let auto, us =
          span "sql.parameterize" (fun () ->
              if config.Middleware.Config.plan_cache
                 && config.Middleware.Config.auto_parameterize
              then Tango_sql.Parameterize.extract r.sql
              else None)
        in
        charge "sql.parameterize_us" us;
        (match auto with
        | Some e -> (e.Tango_sql.Parameterize.template, Some (Array.of_list e.values))
        | None -> (r.sql, None))
  in
  (* 2.-4. parse, compile and optimize [text]; charged only when the
     pipeline did so too (a cache miss) *)
  let optimize ~pipeline_ran =
    let _, parse_us = span "sql.parse" (fun () -> Tango_sql.Parser.query text) in
    let lookup = Middleware.schema_lookup t.mw in
    let (initial, order), compile_us =
      span "tsql.compile" (fun () ->
          ( Tango_tsql.Compile.initial_plan ~lookup text,
            Tango_tsql.Compile.required_order text ))
    in
    let res, optimize_us =
      span "volcano.optimize" (fun () ->
          Middleware.optimize t.mw ~required_order:order initial)
    in
    if pipeline_ran then begin
      (* compiling parses the text twice (plan and required order) *)
      let parse = Float.min compile_us (2.0 *. parse_us) in
      charge "sql.parse_us" parse;
      charge "tsql.compile_us" (compile_us -. parse);
      charge "volcano.optimize_us" optimize_us;
      Layers.incr l "volcano.calls";
      Layers.add l "volcano.classes" (float_of_int res.Tango_volcano.Search.classes);
      Layers.add l "volcano.elements" (float_of_int res.Tango_volcano.Search.elements);
      Layers.add l "volcano.considered" (float_of_int res.Tango_volcano.Search.considered)
    end;
    match res.Tango_volcano.Search.plan with
    | Some p -> p
    | None -> failwith "replay: no plan"
  in
  let miss = String.equal cls "miss" in
  (match values with
  | Some values ->
      let template =
        match Hashtbl.find_opt t.templates text with
        | Some p when not miss -> p
        | _ ->
            let p = optimize ~pipeline_ran:miss in
            Hashtbl.replace t.templates text p;
            p
      in
      let _, us =
        span "cache.instantiate" (fun () ->
            let p = Physical.instantiate values template in
            match Middleware.partition_layout t.mw with
            | Some layout -> Physical.prune_scatter layout p
            | None -> p)
      in
      charge "cache.instantiate_us" us
  | None -> if miss then ignore (optimize ~pipeline_ran:true));
  (* 5.-6. translate the DBMS subtrees, build the execution plan *)
  let physical = report.Middleware.physical in
  let translate_us =
    List.fold_left
      (fun acc (db : Physical.plan) ->
        let _, us =
          span "sqlgen.translate" (fun () ->
              Tango_sqlgen.Translate.translate
                ~temp_name:(fun _ -> "TANGO_TMP_REPLAY")
                db.Physical.op)
        in
        acc +. us)
      0.0 (dbms_subtrees physical)
  in
  charge "sqlgen.translate_us" translate_us;
  let (exec, temps), build_us =
    span "core.build" (fun () ->
        Exec_plan.of_physical (Middleware.database t.mw) physical)
  in
  charge "core.build_us" (Float.max 0.0 (build_us -. translate_us));
  (* 7.-9. execute bottom-up: DBMS statement, boundary, XXL algorithms *)
  let topology = Middleware.topology t.mw in
  let backends = Tango_dbms.Topology.backends topology in
  let cost algo ~measured ~predicted =
    Layers.add l ("cost.measured." ^ algo) measured;
    Layers.add l ("cost.predicted." ^ algo) predicted
  in
  (* one statement on one backend: its DBMS work alone, then the same
     statement drained through the boundary; returns the rows and the
     boundary's own time *)
  let transfer b ~schema sql =
    let db =
      match Backend.database b with
      | Some db -> db
      | None -> failwith "replay: backend is not in-process"
    in
    let h0 = Tango_obs.Counter.value pool_hits in
    let m0 = Tango_obs.Counter.value pool_misses in
    let (rows, d_db), dbms_us =
      span "dbms.execute" (fun () ->
          Runtime.measure (fun () -> Tango_dbms.Database.query_ast db sql))
    in
    let delta c v0 = float_of_int (Tango_obs.Counter.value c - v0) in
    Layers.add l "dbms.pool_hits" (delta pool_hits h0);
    Layers.add l "dbms.pool_misses" (delta pool_misses m0);
    Layers.add l "dbms.rows" (float_of_int (Relation.cardinality rows));
    Layers.incr l "dbms.stmts";
    charge "dbms.execute_us" dbms_us;
    let rt0 = Backend.roundtrips b
    and tu0 = Backend.tuples_shipped b
    and by0 = Backend.bytes_shipped b in
    let (out, d), us =
      span "transfer" (fun () ->
          Runtime.measure (fun () ->
              Tango_xxl.Cursor.to_relation
                (Tango_xxl.Transfer.transfer_m b ~schema sql)))
    in
    let boundary_us = Float.max 0.0 (us -. dbms_us) in
    charge "transfer.us" boundary_us;
    Layers.add l "transfer.tuples" (float_of_int (Backend.tuples_shipped b - tu0));
    Layers.add l "transfer.bytes" (float_of_int (Backend.bytes_shipped b - by0));
    Layers.add l "transfer.roundtrips" (float_of_int (Backend.roundtrips b - rt0));
    Layers.add l "transfer.alloc_bytes"
      (float_of_int
         (max 0 (d.Runtime.alloc_bytes - d_db.Runtime.alloc_bytes)));
    (out, boundary_us)
  in
  let fetched = Hashtbl.create 4 in
  let shared ~deps ~sql ~shards f =
    (* transfer sharing, as the execution context does it *)
    if config.Middleware.Config.share_transfers && deps = [] then begin
      let key = (Exec_plan.alpha_normalize sql, shards) in
      match Hashtbl.find_opt fetched key with
      | Some rel -> rel
      | None ->
          let rel = f () in
          Hashtbl.replace fetched key rel;
          rel
    end
    else f ()
  in
  let cursor = Tango_xxl.Cursor.of_relation in
  let rec run (n : Exec_plan.node) (p : Physical.plan) : Relation.t =
    let retag rel = Relation.make n.Exec_plan.schema (Relation.tuples rel) in
    match (n.Exec_plan.kind, p.Physical.children) with
    | Exec_plan.Transfer_m { sql; deps }, [ db ] ->
        load_deps deps db;
        retag
          (shared ~deps ~sql ~shards:[] (fun () ->
               let rel, us =
                 transfer
                   (Tango_dbms.Topology.primary topology)
                   ~schema:n.Exec_plan.schema sql
               in
               cost "transfer_m" ~measured:us ~predicted:p.Physical.own_cost;
               rel))
    | Exec_plan.Scatter { sql; deps; shard_names; merge_order }, [ db ] ->
        load_deps deps db;
        retag
          (shared ~deps ~sql ~shards:shard_names (fun () ->
               let parts =
                 List.map
                   (fun name ->
                     match Tango_dbms.Topology.find topology name with
                     | Some b -> transfer b ~schema:n.Exec_plan.schema sql
                     | None -> failwith ("replay: unknown shard " ^ name))
                   shard_names
               in
               let boundary_us =
                 List.fold_left (fun acc (_, us) -> acc +. us) 0.0 parts
               in
               let out, us =
                 span "gather" (fun () ->
                     Tango_xxl.Cursor.to_relation
                       (Tango_xxl.Gather.merge ~order:merge_order ~names:shard_names
                          ~schema:n.Exec_plan.schema
                          (List.map (fun (rel, _) -> Tango_xxl.Cursor.of_relation rel) parts)))
               in
               charge "gather.us" us;
               Layers.add l "gather.tuples" (float_of_int (Relation.cardinality out));
               Layers.incr l "gather.calls";
               let ways = float_of_int (List.length shard_names) in
               Layers.add l "gather.ways" ways;
               Layers.add l "gather.pruned"
                 (1.0 -. (ways /. float_of_int (List.length backends)));
               cost "gather_m" ~measured:(boundary_us +. us)
                 ~predicted:p.Physical.own_cost;
               out))
    | Exec_plan.Filter (pred, c), [ pc ] ->
        let i = run c pc in
        xxl "filter_m" p [ i ] (fun () -> Tango_xxl.Basic_ops.filter pred (cursor i))
    | Exec_plan.Project (items, c), [ pc ] ->
        let i = run c pc in
        xxl "project_m" p [ i ] (fun () -> Tango_xxl.Basic_ops.project items (cursor i))
    | Exec_plan.Sort (order, c), [ pc ] ->
        let i = run c pc in
        xxl "sort_m" p [ i ] (fun () -> Tango_xxl.Sort.sort order (cursor i))
    | Exec_plan.Sort_noop c, [ pc ] -> run c pc
    | Exec_plan.Merge_join { pred; left_keys; right_keys; left; right }, [ pl; pr ] ->
        let a = run left pl and b = run right pr in
        xxl "merge_join_m" p [ a; b ] (fun () ->
            Tango_xxl.Joins.merge_join ~pred ~left_keys ~right_keys (cursor a) (cursor b))
    | Exec_plan.Tjoin { pred; left_keys; right_keys; left; right }, [ pl; pr ] ->
        let a = run left pl and b = run right pr in
        xxl "tjoin_m" p [ a; b ] (fun () ->
            Tango_xxl.Joins.temporal_merge_join ~pred ~left_keys ~right_keys (cursor a)
              (cursor b))
    | Exec_plan.Taggr { group_by; aggs; arg }, [ pc ] ->
        let i = run arg pc in
        xxl "taggr_m" p [ i ] (fun () -> Tango_xxl.Taggr.taggr ~group_by ~aggs (cursor i))
    | Exec_plan.Dupelim c, [ pc ] ->
        let i = run c pc in
        xxl "dupelim_m" p [ i ] (fun () -> Tango_xxl.Dup_elim.dup_elim (cursor i))
    | Exec_plan.Coalesce c, [ pc ] ->
        let i = run c pc in
        xxl "coalesce_m" p [ i ] (fun () -> Tango_xxl.Dup_elim.coalesce (cursor i))
    | Exec_plan.Difference (l, r), [ pl; pr ] ->
        let a = run l pl and b = run r pr in
        xxl "difference_m" p [ a; b ] (fun () ->
            Tango_xxl.Dup_elim.difference (cursor a) (cursor b))
    | _ -> failwith ("replay: plan and execution tree disagree at " ^ Exec_plan.kind_name n)
  (* one middleware algorithm over its materialized inputs *)
  and xxl algo (p : Physical.plan) inputs algorithm =
    let (out, d), us =
      span ("xxl." ^ algo) (fun () ->
          Runtime.measure (fun () -> Tango_xxl.Cursor.to_relation (algorithm ())))
    in
    let key s = Printf.sprintf "xxl.%s.%s" algo s in
    charge (key "us") us;
    Layers.add l (key "alloc") (float_of_int d.Runtime.alloc_bytes);
    Layers.add l (key "in")
      (float_of_int (List.fold_left (fun acc i -> acc + Relation.cardinality i) 0 inputs));
    cost algo ~measured:us ~predicted:p.Physical.own_cost;
    out
  (* TRANSFER^D dependencies: evaluate each source, load it everywhere *)
  and load_deps deps (db : Physical.plan) =
    List.iter2
      (fun (dep : Exec_plan.dep) (td : Physical.plan) ->
        let src =
          match td.Physical.children with
          | [ c ] -> run dep.Exec_plan.source c
          | _ -> failwith "replay: malformed TRANSFER^D"
        in
        let schema =
          Tango_sqlgen.Translate.temp_table_schema dep.Exec_plan.source.Exec_plan.schema
        in
        let _, us =
          span "transfer_d" (fun () ->
              List.iter (fun b -> Tango_xxl.Transfer.drop_temp_table b dep.Exec_plan.table) backends;
              Tango_xxl.Cursor.init
                (Tango_xxl.Transfer.transfer_d_all backends ~table:dep.Exec_plan.table
                   (Tango_xxl.Cursor.of_relation (Relation.make schema (Relation.tuples src)))))
        in
        charge "transfer_d.us" us)
      deps (transfer_d_nodes db)
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun tbl -> List.iter (fun b -> Tango_xxl.Transfer.drop_temp_table b tbl) backends)
          temps)
      (fun () -> run exec physical)
  in
  ignore (Layers.record l ~id:parent ~op ~parent:(-1) "replay" start (Common.mono_us ()));
  (result, !charged)
