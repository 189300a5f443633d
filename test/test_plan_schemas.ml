(* Building an execution plan derives each node's schema one level from
   its built children's, and SQL translation derives each DBMS node's once.
   Every schema a built plan holds must equal a test-local recursive
   derivation of the physical node's operator: on Queries 1-4 over one to
   three shards, on 102 seeded ad hoc queries (Adhoc_queries, seed 13,
   test_memo_golden's wider corpus), and on template plans after
   instantiation, where a bound value can retype a projected expression.
   Instantiation rebuilds each node once, over its children's rebuilt
   operators; every instantiated node must equal a recursive substitution
   of the template node's operator. *)

open Tango_rel
open Tango_algebra
open Tango_core
open Tango_workload
open Tango_volcano

let scale = 0.005

(* ---------- the corpus ---------- *)

let corpus =
  lazy
    (let db = Tango_dbms.Database.create () in
     Uis.load ~scale db;
     let one = Middleware.connect ~roundtrip_spin:0 db in
     let sharded n =
       Middleware.connect_topology
         (Uis.load_sharded ~scale ~roundtrip_spins:(List.init n (fun _ -> 0)) ~shards:n ())
     in
     List.concat_map
       (fun (tag, mw) -> List.map (fun (q, sql) -> (q ^ tag, mw, sql)) Queries.workload)
       [ ("/1", one); ("/2", sharded 2); ("/3", sharded 3) ]
     @ List.map
         (fun (q, sql) -> (q, one, sql))
         (Adhoc_queries.seeded ~seed:13 102))

(* The reference: schemas derived recursively, level by level. *)
let rec schema_of (op : Op.t) : Schema.t =
  Op.schema_step op (List.map schema_of (Op.children op))

(* Walk a physical plan and the execution plan built from it together,
   checking every built schema.  A transfer's dependencies are the
   TRANSFER^D nodes of its DBMS subtree, built from their middleware
   children. *)
let check_built name mw (plan : Physical.plan) =
  let node, _ = Exec_plan.of_physical (Middleware.database mw) plan in
  let rec walk path (p : Physical.plan) (n : Exec_plan.node) =
    let here = path ^ "/" ^ Physical.algorithm_name p.Physical.algorithm in
    let want = schema_of p.Physical.op in
    if not (Schema.equal n.Exec_plan.schema want) then
      Alcotest.failf "%s at %s: built schema %s, derived %s" name here
        (Schema.to_string n.Exec_plan.schema)
        (Schema.to_string want);
    let pairs =
      match (n.Exec_plan.kind, p.Physical.children) with
      | (Exec_plan.Transfer_m { deps; _ } | Exec_plan.Scatter { deps; _ }), [ db ] ->
          List.map2
            (fun (td : Physical.plan) (d : Exec_plan.dep) ->
              (List.hd td.Physical.children, d.Exec_plan.source))
            (Physical.collect_tds db) deps
      | _, children -> List.combine children (Exec_plan.children n)
    in
    List.iter (fun (pc, nc) -> walk here pc nc) pairs
  in
  walk "" plan node

let plan_of mw sql =
  let initial, order =
    Tango_tsql.Compile.initial_plan_and_order ~lookup:(Middleware.schema_lookup mw) sql
  in
  match (Middleware.optimize mw ~required_order:order initial).Search.plan with
  | Some plan -> plan
  | None -> Alcotest.failf "no plan for %s" sql

let test_chosen_plans () =
  List.iter (fun (name, mw, sql) -> check_built name mw (plan_of mw sql))
    (Lazy.force corpus)

(* The reference instantiation: every operator's parameters substituted
   through its whole subtree. *)
let rec subst_all f (op : Op.t) : Op.t =
  Op.with_children (Op.map_own_exprs f op) (List.map (subst_all f) (Op.children op))

let check_instantiated name values (template : Physical.plan) =
  let f =
    Tango_sql.Ast.map_params (fun n -> Tango_sql.Ast.Lit values.(n - 1))
  in
  let rec walk path (t : Physical.plan) (p : Physical.plan) =
    let here = path ^ "/" ^ Physical.algorithm_name p.Physical.algorithm in
    if p.Physical.op <> subst_all f t.Physical.op then
      Alcotest.failf "%s at %s: instantiated operator differs from the \
                      recursive substitution" name here;
    List.iter2 (walk here) t.Physical.children p.Physical.children
  in
  let bound = Physical.instantiate values template in
  walk "" template bound;
  bound

(* Each corpus query as the plan cache serves it: planned as a template,
   then closed over its literals. *)
let test_instantiated_templates () =
  List.iter
    (fun (name, mw, sql) ->
      match Tango_sql.Parameterize.extract sql with
      | None -> ()
      | Some { Tango_sql.Parameterize.template; values } ->
          let values = Array.of_list values and plan = plan_of mw template in
          check_built (name ^ " instantiated") mw
            (check_instantiated name values plan))
    (Lazy.force corpus)

(* A bound FLOAT retypes [EmpID + $1] from INT: the built schema must
   follow, at the projection and above it. *)
let test_retyping_instantiation () =
  let _, one, _ = List.hd (Lazy.force corpus) in
  let template = plan_of one "SELECT PosID, EmpID + $1 AS X FROM POSITION ORDER BY X" in
  Alcotest.(check bool) "the template types X as INT" true
    (Schema.dtype_of (schema_of template.Physical.op) "X" = Value.TInt);
  let bound = check_instantiated "retyped" [| Value.Float 1.5 |] template in
  check_built "instantiated" one bound;
  let node, _ = Exec_plan.of_physical (Middleware.database one) bound in
  Alcotest.(check bool) "the bound plan types X as FLOAT" true
    (Schema.dtype_of node.Exec_plan.schema "X" = Value.TFloat)

let () =
  Alcotest.run "plan_schemas"
    [
      ( "built",
        [
          Alcotest.test_case "chosen plans" `Quick test_chosen_plans;
          Alcotest.test_case "instantiated templates" `Quick test_instantiated_templates;
          Alcotest.test_case "instantiation retypes" `Quick test_retyping_instantiation;
        ] );
    ]
