(* Sharded multi-backend execution: 1-vs-N differential over the workload
   queries, partition pruning, per-backend counter agreement, plan-cache
   invalidation on topology changes, and a QCheck property over random
   time-range partition bounds. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_core
open Tango_workload
open Tango_dbms

let scale = 0.005

let single () =
  let db = Database.create () in
  Uis.load ~scale db;
  Middleware.connect ~roundtrip_spin:0 db

let sharded n =
  let topo =
    Uis.load_sharded ~scale ~roundtrip_spins:(List.init n (fun _ -> 0))
      ~shards:n ()
  in
  Middleware.connect_topology topo

let sorted_by result attr =
  let col = Relation.column result attr in
  let ok = ref true in
  Array.iteri
    (fun i v -> if i > 0 && Value.compare col.(i - 1) v > 0 then ok := false)
    col;
  !ok

(* ---- 1 vs N differential over the four workload queries ---- *)

let test_differential_workload () =
  let mw1 = single () in
  List.iter
    (fun shards ->
      let mwn = sharded shards in
      List.iter
        (fun (name, sql) ->
          let r1 = (Middleware.query mw1 sql).Middleware.result in
          let rn = (Middleware.query mwn sql).Middleware.result in
          Alcotest.(check bool)
            (Printf.sprintf "%s nonempty (1 backend)" name)
            true
            (Relation.cardinality r1 > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d shards = 1 backend" name shards)
            true
            (Relation.equal_multiset r1 rn);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d-shard result sorted" name shards)
            true (sorted_by rn "PosID"))
        Queries.workload)
    [ 2; 3 ]

(* ---- the optimizer actually scatters, and verification passes ---- *)

let has_scatter (p : Tango_volcano.Physical.plan) =
  let found = ref false in
  let rec walk (p : Tango_volcano.Physical.plan) =
    if p.Tango_volcano.Physical.algorithm = Tango_volcano.Physical.Scatter_gather_m
    then found := true;
    List.iter walk p.Tango_volcano.Physical.children
  in
  walk p;
  !found

let test_scatter_plan_verifies () =
  let mwn = sharded 3 in
  Middleware.set_config mwn
    Middleware.Config.(
      with_verify_plans Verify_final (Middleware.config mwn));
  List.iter
    (fun (name, sql) ->
      let report = Middleware.query mwn sql in
      Alcotest.(check bool)
        (name ^ " uses a scatter")
        true
        (has_scatter report.Middleware.physical);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s verify clean: %s" name
               (Tango_verify.Diag.to_string d))
            false
            (Tango_verify.Diag.is_error d))
        report.Middleware.diagnostics)
    Queries.workload

(* ---- partition pruning from period predicates ---- *)

let early_filter_plan =
  (* the UIS skew puts ~65 % of periods at 1995+, so restricting to the
     early years excludes the later quantile shards *)
  Op.to_mw
    (Op.sort
       [ Order.asc "PosID" ]
       (Op.select
          (Ast.Binop
             ( Ast.Lt,
               Ast.Col (None, "T1"),
               Ast.Lit (Value.Date (Tango_temporal.Chronon.of_ymd ~y:1985 ~m:1 ~d:1)) ))
          (Op.scan "POSITION" Uis.position_schema)))

let scatter_shards (p : Tango_volcano.Physical.plan) =
  let acc = ref [] in
  let rec walk (p : Tango_volcano.Physical.plan) =
    if p.Tango_volcano.Physical.algorithm = Tango_volcano.Physical.Scatter_gather_m
    then acc := p.Tango_volcano.Physical.shards :: !acc;
    List.iter walk p.Tango_volcano.Physical.children
  in
  walk p;
  !acc

let test_pruning_reduces_shards_and_shipping () =
  let mw1 = single () in
  let mwn = sharded 3 in
  let backends = Topology.backends (Middleware.topology mwn) in
  List.iter Backend.reset_meters backends;
  let r1 =
    (Middleware.run_fixed mw1 ~required_order:[ Order.asc "PosID" ]
       early_filter_plan)
      .Middleware.result
  in
  let report =
    Middleware.run_fixed mwn ~required_order:[ Order.asc "PosID" ]
      early_filter_plan
  in
  Alcotest.(check bool) "nonempty" true (Relation.cardinality r1 > 0);
  Alcotest.(check bool)
    "same rows" true
    (Relation.equal_multiset r1 report.Middleware.result);
  (match scatter_shards report.Middleware.physical with
  | [ shards ] ->
      Alcotest.(check bool)
        (Printf.sprintf "pruned to %d of 3 shards" (List.length shards))
        true
        (List.length shards < 3 && List.length shards >= 1)
  | other ->
      Alcotest.failf "expected one scatter, found %d" (List.length other));
  (* the shards outside the period shipped nothing *)
  let active =
    match scatter_shards report.Middleware.physical with
    | [ shards ] -> shards
    | _ -> []
  in
  List.iter
    (fun b ->
      if not (List.mem (Backend.name b) active) then
        Alcotest.(check int)
          (Backend.name b ^ " shipped nothing")
          0
          (Backend.tuples_shipped b))
    backends;
  (* the same restriction as temporal SQL, planned by the optimizer *)
  let sql =
    "VALIDTIME SELECT PosID FROM POSITION WHERE T1 < DATE '1985-01-01' \
     ORDER BY PosID"
  in
  let r1 = Middleware.query mw1 sql in
  List.iter Backend.reset_meters backends;
  let rn = Middleware.query mwn sql in
  Alcotest.(check bool) "SQL: nonempty" true
    (Relation.cardinality r1.Middleware.result > 0);
  Alcotest.(check bool) "SQL: same rows" true
    (Relation.equal_multiset r1.Middleware.result rn.Middleware.result);
  Alcotest.(check bool) "SQL: some shard shipped nothing" true
    (List.exists (fun b -> Backend.tuples_shipped b = 0) backends)

(* ---- counter agreement: sum of per-backend tuples = single total ---- *)

let full_scan_plan =
  Op.to_mw
    (Op.sort [ Order.asc "PosID" ] (Op.scan "POSITION" Uis.position_schema))

let test_counter_agreement () =
  let mw1 = single () in
  let mwn = sharded 3 in
  let b1 = Middleware.primary mw1 in
  let backends = Topology.backends (Middleware.topology mwn) in
  Backend.reset_meters b1;
  List.iter Backend.reset_meters backends;
  let r1 =
    (Middleware.run_fixed mw1 ~required_order:[ Order.asc "PosID" ]
       full_scan_plan)
      .Middleware.result
  in
  let rn =
    (Middleware.run_fixed mwn ~required_order:[ Order.asc "PosID" ]
       full_scan_plan)
      .Middleware.result
  in
  Alcotest.(check bool) "same rows" true (Relation.equal_multiset r1 rn);
  let total_n =
    List.fold_left (fun acc b -> acc + Backend.tuples_shipped b) 0 backends
  in
  Alcotest.(check int)
    "sum of per-shard tuples_shipped = single-backend total"
    (Backend.tuples_shipped b1) total_n;
  Alcotest.(check bool)
    "every shard shipped something" true
    (List.for_all (fun b -> Backend.tuples_shipped b > 0) backends)

(* ---- attribution equals the meters ---- *)

(* The rows and bytes a query's attribution records for a backend are
   exactly what that backend's meter counted.  Query 2's plan 1 loads a
   middleware aggregate back with TRANSFER^D (streamed on one backend,
   replicated on two) and reads the join out with TRANSFER^M. *)
let test_attribution_matches_meters () =
  List.iter
    (fun mw ->
      let backends = Topology.backends (Middleware.topology mw) in
      List.iter Backend.reset_meters backends;
      let r =
        Middleware.run_fixed mw ~required_order:Queries.q2_order
          (Queries.q2_plan1 ~position:"POSITION" ~period_end:"1997-01-01" ())
      in
      let shards = List.length backends in
      List.iter
        (fun b ->
          let name = Printf.sprintf "%d backends, %s" shards (Backend.name b) in
          let rows, bytes =
            match List.assoc_opt (Backend.name b) r.Middleware.backends with
            | Some a -> (a.Middleware.rows, a.Middleware.bytes)
            | None -> (0, 0)
          in
          Alcotest.(check bool) (name ^ " shipped") true
            (Backend.tuples_shipped b > 0);
          Alcotest.(check int) (name ^ " rows") (Backend.tuples_shipped b) rows;
          Alcotest.(check int) (name ^ " bytes") (Backend.bytes_shipped b) bytes)
        backends)
    [ single (); sharded 2 ]

(* ---- sharded plans are cached like single-backend ones ---- *)

let test_cache_sharded_hit () =
  let mwn = sharded 2 in
  Middleware.set_config mwn
    Middleware.Config.(with_plan_cache true (Middleware.config mwn));
  let sql = List.assoc "q1" Queries.workload in
  let hit r =
    match r.Middleware.cache with
    | Some c -> c.Middleware.cache_class <> "miss"
    | None -> Alcotest.fail "cache report missing"
  in
  Alcotest.(check bool) "first is a miss" false (hit (Middleware.query mwn sql));
  Alcotest.(check bool) "second is a hit" true (hit (Middleware.query mwn sql))

(* ---- property: random partition bounds never change results ---- *)

let r_schema =
  Schema.make
    [
      ("K", Value.TInt); ("V", Value.TInt);
      ("T1", Value.TDate); ("T2", Value.TDate);
    ]

let rel_of rows =
  Relation.of_list r_schema
    (List.map
       (fun (k, t1) ->
         Tuple.of_list
           [ Value.Int k; Value.Int (k * 7); Value.Date t1;
             Value.Date (t1 + 1 + (k mod 5)) ])
       rows)

let topo_of rows cuts =
  let cuts = List.sort_uniq compare cuts in
  let bounds =
    (* contiguous [lo, hi) slices from the cut points *)
    let rec mk lo = function
      | [] -> [ { Topology.lo; hi = None } ]
      | c :: rest -> { Topology.lo; hi = Some c } :: mk (Some c) rest
    in
    mk None cuts
  in
  let in_bounds (b : Topology.bounds) t1 =
    (match b.Topology.lo with None -> true | Some lo -> t1 >= lo)
    && match b.Topology.hi with None -> true | Some hi -> t1 < hi
  in
  Topology.create ~partitioned:("R", "T1")
    (List.mapi
       (fun i b ->
         let db = Database.create () in
         Database.load_relation db "R"
           (rel_of (List.filter (fun (_, t1) -> in_bounds b t1) rows));
         Database.analyze_all db ();
         (Backend.in_process ~name:(Printf.sprintf "s%d" i) ~roundtrip_spin:0 db, b))
       bounds)

let prop_random_bounds =
  QCheck.Test.make ~name:"random partition bounds preserve results" ~count:30
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 80)
           (pair (int_range 0 50) (int_range 0 100)))
        (list_of_size (Gen.int_range 0 3) (int_range 1 99))
        (int_range 0 100))
    (fun (rows, cuts, sel) ->
      let db1 = Database.create () in
      Database.load_relation db1 "R" (rel_of rows);
      Database.analyze_all db1 ();
      let mw1 = Middleware.connect ~roundtrip_spin:0 db1 in
      let topo = topo_of rows cuts in
      let mwn = Middleware.connect_topology topo in
      let order = [ Order.asc "T1"; Order.asc "K" ] in
      let plan pred_opt =
        let src = Op.scan "R" r_schema in
        let src =
          match pred_opt with
          | None -> src
          | Some c ->
              Op.select
                (Ast.Binop (Ast.Lt, Ast.Col (None, "T1"), Ast.Lit (Value.Date c)))
                src
        in
        Op.to_mw (Op.sort order src)
      in
      let run mw p =
        (Middleware.run_fixed mw ~required_order:order p).Middleware.result
      in
      let agree p = Relation.equal_multiset (run mw1 p) (run mwn p) in
      agree (plan None) && agree (plan (Some sel)))

let () =
  Alcotest.run "tango_sharding"
    [
      ( "differential",
        [
          Alcotest.test_case "workload queries, 1 vs N" `Slow
            test_differential_workload;
          Alcotest.test_case "scatter plans verify" `Quick
            test_scatter_plan_verifies;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "period predicate prunes shards" `Quick
            test_pruning_reduces_shards_and_shipping;
        ] );
      ( "counters",
        [
          Alcotest.test_case "per-backend sums agree" `Quick test_counter_agreement;
          Alcotest.test_case "attribution equals the meters" `Quick
            test_attribution_matches_meters;
        ] );
      ( "cache",
        [
          Alcotest.test_case "sharded plans hit" `Quick test_cache_sharded_hit;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_random_bounds ] );
    ]
