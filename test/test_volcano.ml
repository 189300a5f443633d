(* Tests for the Volcano-style optimizer: memo mechanics, transformation
   rules, and cost-based physical planning. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_stats
open Tango_cost
open Tango_volcano

let col ?q c = Ast.Col (q, c)

let pos_schema =
  Schema.make
    [ ("PosID", Value.TInt); ("EmpName", Value.TStr);
      ("PayRate", Value.TFloat); ("T1", Value.TDate); ("T2", Value.TDate) ]

let scan ?alias () = Op.scan ?alias "POSITION" pos_schema

(* Synthetic statistics: 10k tuples, PosID with 100 distinct values. *)
let stats_env =
  Derive.env (fun ~qualifier _table ->
      let q n = qualifier ^ "." ^ n in
      {
        Rel_stats.card = 10_000.0;
        cols =
          [
            (q "PosID",
             { Rel_stats.distinct = 100.0; min_v = Some 1.0; max_v = Some 100.0;
               histogram = None; avg_width = 8.0; indexed = false });
            (q "EmpName", { (Rel_stats.col_default 10_000.0) with Rel_stats.distinct = 500.0; avg_width = 14.0 });
            (q "PayRate",
             { Rel_stats.distinct = 2500.0; min_v = Some 5.0; max_v = Some 30.0;
               histogram = None; avg_width = 8.0; indexed = false });
            (q "T1",
             { Rel_stats.distinct = 1800.0; min_v = Some 3650.0; max_v = Some 10950.0;
               histogram = None; avg_width = 8.0; indexed = false });
            (q "T2",
             { Rel_stats.distinct = 1800.0; min_v = Some 3700.0; max_v = Some 11300.0;
               histogram = None; avg_width = 8.0; indexed = false });
          ];
      })

let factors = Factors.default ()

let optimize ?required_order op =
  Search.optimize ~factors ~stats_env ?required_order op

(* ---------- memo ---------- *)

let test_memo_dedup () =
  let m = Memo.create () in
  let c1 = Memo.insert_op m (scan ()) in
  let c2 = Memo.insert_op m (scan ()) in
  Alcotest.(check int) "same class" c1 c2;
  let c3 = Memo.insert_op m (Op.select (col "PosID") (scan ())) in
  Alcotest.(check bool) "new class" true (c3 <> c1);
  Alcotest.(check int) "three elements" 2 (Memo.element_count m)

let test_memo_union () =
  let m = Memo.create () in
  let a = Memo.insert_op m (scan ()) in
  let b = Memo.insert_op m (Op.select (col "PosID") (scan ~alias:"X" ())) in
  let root = Memo.union m a b in
  Alcotest.(check int) "find a" root (Memo.find m a);
  Alcotest.(check int) "find b" root (Memo.find m b);
  Alcotest.(check int) "merged elements" 2 (List.length (Memo.elements m root))

(* The memo's congruence closure before it went incremental, kept as the
   reference: elements stored as inserted and canonicalized on read, and
   after every union a full rebuild of the dedup table that merges the
   last collision a scan in class-id order meets. *)
module Ref_memo = struct
  type t = {
    parent : int array;
    elements : Memo.node list array;
    table : (Memo.node, int) Hashtbl.t;
    mutable count : int;
  }

  let create () =
    { parent = Array.init 512 Fun.id; elements = Array.make 512 [];
      table = Hashtbl.create 64; count = 0 }

  let rec find m i = if m.parent.(i) = i then i else find m m.parent.(i)

  let canon m (n : Memo.node) : Memo.node =
    match n with
    | Memo.N_scan _ -> n
    | Memo.N_select s -> Memo.N_select { s with arg = find m s.arg }
    | Memo.N_tm c -> Memo.N_tm (find m c)
    | Memo.N_td c -> Memo.N_td (find m c)
    | Memo.N_product { left; right } ->
        Memo.N_product { left = find m left; right = find m right }
    | _ -> invalid_arg "Ref_memo.canon"

  let elements m c = List.map (canon m) m.elements.(find m c)

  let rec union m a b =
    let ra = find m a and rb = find m b in
    if ra <> rb then begin
      let root, other = if ra < rb then (ra, rb) else (rb, ra) in
      m.parent.(other) <- root;
      m.elements.(root) <- m.elements.(other) @ m.elements.(root);
      m.elements.(other) <- [];
      Hashtbl.reset m.table;
      let pending = ref [] in
      for i = 0 to m.count - 1 do
        if find m i = i then
          List.iter
            (fun n ->
              let cn = canon m n in
              match Hashtbl.find_opt m.table cn with
              | Some j when find m j <> i -> pending := (i, j) :: !pending
              | Some _ -> ()
              | None -> Hashtbl.replace m.table cn i)
            m.elements.(i)
      done;
      match !pending with [] -> () | (a, b) :: _ -> union m a b
    end

  let insert m n =
    let n = canon m n in
    match Hashtbl.find_opt m.table n with
    | Some c -> find m c
    | None ->
        let c = m.count in
        m.count <- c + 1;
        m.elements.(c) <- [ n ];
        Hashtbl.replace m.table n c;
        c

  let add_to_class m c n =
    let c = find m c and n = canon m n in
    match Hashtbl.find_opt m.table n with
    | Some c' when find m c' = c -> ()
    | Some c' -> union m c c'
    | None ->
        m.elements.(c) <- n :: m.elements.(c);
        Hashtbl.replace m.table n c
end

(* Random insertions, additions and unions over a few node shapes, so
   that unions cascade; after every step both memos must agree on every
   class's root and its elements, in order. *)
let prop_memo_matches_reference =
  let gen_ops =
    QCheck.Gen.(list_size (int_range 10 80) (triple (int_bound 9) (int_bound 1000) (int_bound 1000)))
  in
  QCheck.Test.make ~count:300 ~name:"incremental congruence = full rebuild"
    (QCheck.make gen_ops)
    (fun ops ->
      let m = Memo.create () and r = Ref_memo.create () in
      let scan_schema = Schema.make [ ("K", Value.TInt) ] in
      let node k x y : Memo.node =
        match k mod 5 with
        | 0 -> Memo.N_scan { table = "T" ^ string_of_int (x mod 3); alias = None; schema = scan_schema }
        | 1 -> Memo.N_select { pred = Ast.Lit (Value.Bool (y mod 2 = 0)); arg = x }
        | 2 -> Memo.N_tm x
        | 3 -> Memo.N_td x
        | _ -> Memo.N_product { left = x; right = y }
      in
      ignore (Memo.insert m (node 0 0 0));
      ignore (Ref_memo.insert r (node 0 0 0));
      List.for_all
        (fun (op, x, y) ->
          let n = r.Ref_memo.count in
          let x = x mod n and y = y mod n in
          (match op with
          | 0 | 1 | 2 | 3 ->
              let nd = node (x + y) x y in
              ignore (Memo.insert m nd);
              ignore (Ref_memo.insert r nd)
          | 4 | 5 | 6 | 7 ->
              let nd = node (op + y) y x in
              ignore (Memo.add_to_class m x nd);
              Ref_memo.add_to_class r x nd
          | _ ->
              ignore (Memo.union m x y);
              Ref_memo.union r x y);
          let n = r.Ref_memo.count in
          Memo.class_count m
          = List.length (List.filter (fun i -> Ref_memo.find r i = i) (List.init n Fun.id))
          && List.for_all
               (fun i ->
                 Memo.find m i = Ref_memo.find r i
                 && Memo.elements m i = Ref_memo.elements r i)
               (List.init n Fun.id))
        ops)

let test_memo_extract () =
  let m = Memo.create () in
  let op = Op.sort [ Order.asc "PosID" ] (Op.select (col "PosID") (scan ())) in
  let c = Memo.insert_op m op in
  Alcotest.(check bool) "roundtrip" true (Memo.extract m c = op)

let test_memo_location () =
  let m = Memo.create () in
  let c_db = Memo.insert_op m (scan ()) in
  let c_mw = Memo.insert_op m (Op.to_mw (scan ())) in
  Alcotest.(check bool) "db" true (Memo.location m c_db = Op.Db);
  Alcotest.(check bool) "mw" true (Memo.location m c_mw = Op.Mw)

(* ---------- rules ---------- *)

let taggr_q1 =
  Op.temporal_aggregate [ "POSITION.PosID" ] [ Op.count_star "CNT" ] (scan ())

let initial_q1 = Op.to_mw (Op.sort [ Order.asc "POSITION.PosID" ] taggr_q1)

let saturated_memo op =
  let m = Memo.create () in
  let root = Memo.insert_op m op in
  Rules.saturate m;
  (m, root)

let class_has m c pred = List.exists pred (Memo.elements m c)

let test_t1_applies () =
  let m, _root = saturated_memo initial_q1 in
  (* somewhere in the memo, the taggr class gained a T^D alternative *)
  let found =
    List.exists
      (fun c ->
        class_has m c (function Memo.N_taggr _ -> true | _ -> false)
        && class_has m c (function Memo.N_td _ -> true | _ -> false))
      (Memo.classes m)
  in
  Alcotest.(check bool) "T^D variant exists alongside taggr" true found

let test_t7_t8_cancel () =
  let m = Memo.create () in
  (* T^M(T^D(T^M(scan))) should collapse to T^M(scan)'s class *)
  let inner = Op.to_mw (scan ()) in
  let c1 = Memo.insert_op m (Op.to_mw (Op.to_db inner)) in
  let c2 = Memo.insert_op m inner in
  Rules.saturate m;
  Alcotest.(check int) "classes merged" (Memo.find m c1) (Memo.find m c2)

let test_t9_identity_project () =
  let m = Memo.create () in
  let s = Op.schema (scan ()) in
  let items =
    List.map
      (fun (a : Schema.attribute) -> (Ast.Col (None, a.Schema.name), a.Schema.name))
      (Schema.attributes s)
  in
  let c1 = Memo.insert_op m (Op.project items (scan ())) in
  let c2 = Memo.insert_op m (scan ()) in
  Rules.saturate m;
  Alcotest.(check int) "identity removed" (Memo.find m c1) (Memo.find m c2)

let test_counts_grow () =
  let m, _ = saturated_memo initial_q1 in
  Alcotest.(check bool) "classes" true (Memo.class_count m >= 5);
  Alcotest.(check bool) "elements grew" true (Memo.element_count m > 4)

(* T4/T5/T6: selections, projections, sorts move above T^M. *)
let test_t4_t6_pull_above_tm () =
  let pred = Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)) in
  let m, _ = saturated_memo (Op.to_mw (Op.select pred (scan ()))) in
  let found =
    List.exists
      (fun c ->
        class_has m c (function Memo.N_tm _ -> true | _ -> false)
        && class_has m c (function
             | Memo.N_select { arg; _ } -> Memo.location m arg = Op.Mw
             | _ -> false))
      (Memo.classes m)
  in
  Alcotest.(check bool) "selection moved above T^M" true found;
  let m, _ =
    saturated_memo (Op.to_mw (Op.sort [ Order.asc "POSITION.PosID" ] (scan ())))
  in
  let found =
    List.exists
      (fun c ->
        class_has m c (function
          | Memo.N_sort { arg; _ } -> Memo.location m arg = Op.Mw
          | _ -> false))
      (Memo.classes m)
  in
  Alcotest.(check bool) "sort moved above T^M" true found

(* T12: a sort whose argument-sort is a prefix is subsumed. *)
let test_t12_subsumed_sort () =
  let inner = Op.sort [ Order.asc "POSITION.PosID" ] (scan ()) in
  let outer =
    Op.sort [ Order.asc "POSITION.PosID"; Order.asc "POSITION.T1" ] inner
  in
  let m, root = saturated_memo outer in
  let found =
    class_has m root (function
      | Memo.N_sort { order; arg } ->
          List.length order = 2
          && class_has m arg (function Memo.N_scan _ -> true | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "outer sort applies directly to the scan" true found

(* C1: adjacent selections merge. *)
let test_c1_combine_selects () =
  let p1 = Ast.Binop (Ast.Gt, col "PayRate", Ast.Lit (Value.Float 10.0)) in
  let p2 = Ast.Binop (Ast.Eq, col "PosID", Ast.Lit (Value.Int 1)) in
  let m, root = saturated_memo (Op.select p1 (Op.select p2 (scan ()))) in
  let found =
    class_has m root (function
      | Memo.N_select { pred = Ast.Binop (Ast.And, _, _); arg } ->
          class_has m arg (function Memo.N_scan _ -> true | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "merged conjunction over the scan" true found

(* R1: selection conjuncts push below a join. *)
let test_r1_push_below_join () =
  let jp = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID") in
  let sp = Ast.Binop (Ast.Gt, col ~q:"A" "PayRate", Ast.Lit (Value.Float 10.0)) in
  let m, root =
    saturated_memo
      (Op.select sp (Op.join jp (scan ~alias:"A" ()) (scan ~alias:"B" ())))
  in
  let found =
    class_has m root (function
      | Memo.N_join { left; _ } ->
          class_has m left (function Memo.N_select _ -> true | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "selection below the join" true found

(* R2: group-attribute selections push below temporal aggregation. *)
let test_r2_push_below_taggr () =
  let sp = Ast.Binop (Ast.Eq, col "PosID", Ast.Lit (Value.Int 3)) in
  let m, root = saturated_memo (Op.select sp taggr_q1) in
  let found =
    class_has m root (function
      | Memo.N_taggr { arg; _ } ->
          class_has m arg (function Memo.N_select _ -> true | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "selection below the aggregation" true found

(* R3: a time window above a temporal join seeds both arguments. *)
let test_r3_window_below_tjoin () =
  let jp = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID") in
  let w =
    Ast.Binop
      (Ast.And,
       Ast.Binop (Ast.Lt, col "T1", Ast.Lit (Value.Date 9000)),
       Ast.Binop (Ast.Gt, col "T2", Ast.Lit (Value.Date 8000)))
  in
  let m, root =
    saturated_memo
      (Op.select w
         (Op.temporal_join jp (scan ~alias:"A" ()) (scan ~alias:"B" ())))
  in
  let found =
    class_has m root (function
      | Memo.N_select { arg; _ } ->
          class_has m arg (function
            | Memo.N_tjoin { left; right; _ } ->
                class_has m left (function Memo.N_select _ -> true | _ -> false)
                && class_has m right (function Memo.N_select _ -> true | _ -> false)
            | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "window seeded into both tjoin sides" true found

(* E2: commuted join exists modulo a reordering projection. *)
let test_e2_commute () =
  let jp = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID") in
  let m, root = saturated_memo (Op.join jp (scan ~alias:"A" ()) (scan ~alias:"B" ())) in
  let found =
    class_has m root (function
      | Memo.N_project { arg; _ } ->
          class_has m arg (function Memo.N_join _ -> true | _ -> false)
      | _ -> false)
  in
  Alcotest.(check bool) "reordering projection over swapped join" true found

(* T1b/T1c: dup-elim and coalesce move to the middleware. *)
let test_dupelim_coalesce_to_mw () =
  let m, root = saturated_memo (Op.Dup_elim (scan ())) in
  Alcotest.(check bool) "dupelim gains a T^D variant" true
    (class_has m root (function Memo.N_td _ -> true | _ -> false));
  let m, root = saturated_memo (Op.Coalesce (scan ())) in
  Alcotest.(check bool) "coalesce gains a T^D variant" true
    (class_has m root (function Memo.N_td _ -> true | _ -> false));
  (* and the coalesce plan is actually executable (MW-only algorithm) *)
  let r =
    Search.optimize ~factors ~stats_env (Op.to_mw (Op.Coalesce (scan ())))
  in
  Alcotest.(check bool) "coalesce plan found" true (r.Search.plan <> None)

(* R4: the aggregation argument is pruned to the needed attributes. *)
let test_r4_prune_taggr_argument () =
  let m, root = saturated_memo initial_q1 in
  ignore root;
  let found =
    List.exists
      (fun c ->
        class_has m c (function
          | Memo.N_taggr { arg; _ } ->
              class_has m arg (function
                | Memo.N_project { items; _ } -> List.length items = 3
                | _ -> false)
          | _ -> false))
      (Memo.classes m)
  in
  Alcotest.(check bool) "taggr over a 3-column projection exists" true found;
  (* and the chosen plan's transfer carries only PosID, T1, T2 *)
  match
    (Search.optimize ~factors ~stats_env ~required_order:[ Order.asc "PosID" ]
       initial_q1).Search.plan
  with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let rec db_subtree p =
        if p.Physical.algorithm = Physical.Transfer_m_algo then
          Some (List.hd p.Physical.children)
        else List.find_map db_subtree p.Physical.children
      in
      (match db_subtree plan with
      | Some db_part ->
          let out = Op.schema db_part.Physical.op in
          Alcotest.(check int) "3 columns cross the boundary" 3 (Schema.arity out)
      | None -> Alcotest.fail "no transfer in plan")

(* T1d: a DBMS-located difference becomes plannable via the middleware. *)
let test_difference_to_mw () =
  let diff = Op.Difference { left = scan ~alias:"A" (); right = scan ~alias:"B" () } in
  let r = Search.optimize ~factors ~stats_env (Op.to_mw diff) in
  (match r.Search.plan with
  | Some p ->
      let rec uses q =
        q.Physical.algorithm = Physical.Difference_m
        || List.exists uses q.Physical.children
      in
      Alcotest.(check bool) "uses DIFFERENCE^M" true (uses p)
  | None -> Alcotest.fail "difference should be plannable")

(* ---------- physical planning ---------- *)

let test_q1_plan_found_and_uses_mw_taggr () =
  let r = optimize ~required_order:[ Order.asc "PosID" ] initial_q1 in
  match r.Search.plan with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let sign = Physical.signature plan in
      Alcotest.(check bool)
        ("chose TAGGR^M: " ^ sign)
        true
        (let rec uses p =
           p.Physical.algorithm = Physical.Taggr_m
           || List.exists uses p.Physical.children
         in
         uses plan);
      Alcotest.(check bool) "cost positive" true (plan.Physical.total_cost > 0.0);
      Alcotest.(check bool) "root in middleware" true
        (plan.Physical.location = Op.Mw)

let test_q1_dbms_wins_when_mw_expensive () =
  (* If middleware aggregation were extremely expensive, the DBMS plan must
     win: cost-based choice actually reacts to factors. *)
  let f = Factors.default () in
  f.Factors.p_taggm1 <- 1e6;
  f.Factors.p_tm <- 1e6;
  let r =
    Search.optimize ~factors:f ~stats_env
      ~required_order:[ Order.asc "PosID" ] initial_q1
  in
  match r.Search.plan with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let rec uses_mw_taggr p =
        p.Physical.algorithm = Physical.Taggr_m
        || List.exists uses_mw_taggr p.Physical.children
      in
      Alcotest.(check bool) "avoids TAGGR^M" false (uses_mw_taggr plan)

let test_sort_passthrough () =
  (* Sorting an already-sorted input must cost nothing. *)
  let op = Op.to_mw (Op.sort [ Order.asc "POSITION.PosID" ]
                       (Op.sort [ Order.asc "POSITION.PosID"; Order.asc "POSITION.T1" ] (scan ()))) in
  match Search.cost_plan ~factors ~stats_env ~required_order:[ Order.asc "PosID" ] op with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let rec find_noop p =
        p.Physical.algorithm = Physical.Sort_passthrough
        || List.exists find_noop p.Physical.children
      in
      Alcotest.(check bool) "outer sort is a no-op" true (find_noop plan)

let test_required_order_enforced () =
  (* Without any sort in the tree, an ordered requirement is infeasible
     for a bare scan... unless the DBMS part ends with a sort. *)
  let bare = Op.to_mw (scan ()) in
  let r = optimize ~required_order:[ Order.asc "PosID" ] bare in
  Alcotest.(check bool) "no plan without sort" true (r.Search.plan = None);
  let sorted = Op.to_mw (Op.sort [ Order.asc "POSITION.PosID" ] (scan ())) in
  let r = optimize ~required_order:[ Order.asc "PosID" ] sorted in
  Alcotest.(check bool) "plan with sort" true (r.Search.plan <> None)

let test_join_plans () =
  let pred = Ast.Binop (Ast.Eq, col ~q:"A" "PosID", col ~q:"B" "PosID") in
  let initial =
    Op.to_mw
      (Op.sort [ Order.asc "A.PosID" ]
         (Op.temporal_join pred (scan ~alias:"A" ()) (scan ~alias:"B" ())))
  in
  let r = optimize ~required_order:[ Order.asc "PosID" ] initial in
  (match r.Search.plan with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      Alcotest.(check bool) "plan exists" true (plan.Physical.total_cost > 0.0));
  Alcotest.(check bool) "explored enough" true (r.Search.elements > 5)

let test_cost_plan_fixed_trees () =
  (* the hand-built experiment plans must all be executable as written *)
  let plans =
    Tango_workload.Queries.q1_plans ~position:"POSITION" ()
    @ Tango_workload.Queries.q2_plans ~position:"POSITION" ~period_end:"1990-01-01" ()
    @ Tango_workload.Queries.q3_plans ~position:"POSITION" ~start_bound:"1990-01-01" ()
  in
  let env =
    Derive.env (fun ~qualifier _ ->
        let q n = qualifier ^ "." ^ n in
        {
          Rel_stats.card = 1000.0;
          cols =
            List.map
              (fun (a : Schema.attribute) ->
                (q a.Schema.name, Rel_stats.col_default ~width:10.0 100.0))
              (Schema.attributes Tango_workload.Uis.position_schema);
        })
  in
  List.iter
    (fun (name, tree) ->
      match
        Search.cost_plan ~factors ~stats_env:env
          ~required_order:[ Order.asc "PosID" ] tree
      with
      | Some p ->
          Alcotest.(check bool) (name ^ " cost > 0") true (p.Physical.total_cost > 0.0)
      | None -> Alcotest.fail (name ^ ": not executable as written"))
    plans

let test_memo_counts_reported () =
  let r = optimize ~required_order:[ Order.asc "PosID" ] initial_q1 in
  Alcotest.(check bool) "classes reported" true (r.Search.classes > 0);
  Alcotest.(check bool) "elements >= classes" true (r.Search.elements >= r.Search.classes);
  Alcotest.(check bool) "time measured" true (r.Search.time_us >= 0.0)

(* ---------- indexed name resolution ---------- *)

(* Keys from a small pool: duplicates, one base name under several
   qualifiers, qualified and unqualified spellings, and missing keys. *)
let name_pool =
  [ "PosID"; "A.PosID"; "B.PosID"; "T1"; "A.T1"; "EmpName"; "C.EmpName"; "X" ]

let gen_lookup =
  let open QCheck.Gen in
  let key = frequency [ (6, map Option.some (oneofl name_pool)); (1, return None) ] in
  pair (list_size (int_bound 12) key) (oneofl (name_pool @ [ "Y"; "D.PosID"; "D.X" ]))

let print_lookup (keys, name) =
  Printf.sprintf "[%s] %s"
    (String.concat "; " (List.map (Option.value ~default:"-") keys))
    name

(* Items are (position, key) so that the found item's identity is
   compared, not just its key. *)
let prop_index_matches_linear =
  QCheck.Test.make ~count:1000 ~name:"Name_index = linear lookups"
    (QCheck.make ~print:print_lookup gen_lookup)
    (fun (keys, name) ->
      let items = List.mapi (fun i k -> (i, k)) keys in
      let indexed = Name_index.find (Name_index.make snd items) name in
      let linear = Rules.find_item_by snd items name in
      (* Rel_stats columns have a key each *)
      let cols =
        List.filter_map
          (fun (i, k) ->
            Option.map
              (fun k -> (k, { (Rel_stats.col_default 1.0) with Rel_stats.distinct = float_of_int i }))
              k)
          items
      in
      let col_indexed =
        Option.map snd
          (Name_index.find (Name_index.make (fun (n, _) -> Some n) cols) name)
      in
      let col_linear = Rel_stats.find { Rel_stats.card = 1.0; cols } name in
      indexed = linear && col_indexed = col_linear)

let () =
  Alcotest.run "tango_volcano"
    [
      ( "memo",
        [
          Alcotest.test_case "dedup" `Quick test_memo_dedup;
          Alcotest.test_case "union" `Quick test_memo_union;
          QCheck_alcotest.to_alcotest prop_memo_matches_reference;
          Alcotest.test_case "extract" `Quick test_memo_extract;
          Alcotest.test_case "location" `Quick test_memo_location;
        ] );
      ( "rules",
        [
          Alcotest.test_case "T1 taggr to MW" `Quick test_t1_applies;
          Alcotest.test_case "T7/T8 cancel transfers" `Quick test_t7_t8_cancel;
          Alcotest.test_case "T9 identity projection" `Quick test_t9_identity_project;
          Alcotest.test_case "memo grows" `Quick test_counts_grow;
          Alcotest.test_case "T4-T6 pull above T^M" `Quick test_t4_t6_pull_above_tm;
          Alcotest.test_case "T12 subsumed sort" `Quick test_t12_subsumed_sort;
          Alcotest.test_case "C1 combine selects" `Quick test_c1_combine_selects;
          Alcotest.test_case "R1 push below join" `Quick test_r1_push_below_join;
          Alcotest.test_case "R2 push below taggr" `Quick test_r2_push_below_taggr;
          Alcotest.test_case "R3 window below tjoin" `Quick test_r3_window_below_tjoin;
          Alcotest.test_case "E2 commute" `Quick test_e2_commute;
          Alcotest.test_case "dupelim/coalesce to MW" `Quick test_dupelim_coalesce_to_mw;
          Alcotest.test_case "difference to MW" `Quick test_difference_to_mw;
          Alcotest.test_case "R4 prune taggr argument" `Quick test_r4_prune_taggr_argument;
        ] );
      ( "physical",
        [
          Alcotest.test_case "Q1 chooses TAGGR^M" `Quick test_q1_plan_found_and_uses_mw_taggr;
          Alcotest.test_case "factors flip the choice" `Quick test_q1_dbms_wins_when_mw_expensive;
          Alcotest.test_case "sort passthrough (T10)" `Quick test_sort_passthrough;
          Alcotest.test_case "required order enforced" `Quick test_required_order_enforced;
          Alcotest.test_case "temporal join plans" `Quick test_join_plans;
          Alcotest.test_case "fixed experiment trees cost" `Quick test_cost_plan_fixed_trees;
          Alcotest.test_case "counts reported" `Quick test_memo_counts_reported;
        ] );
      ("lookups", [ QCheck_alcotest.to_alcotest prop_index_matches_linear ]);
    ]
