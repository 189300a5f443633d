(* Auto-parameterization: template extraction and natural typing, plus a
   QCheck differential — any literal-varying workload query run through
   the template path (auto-parameterized, then instantiated at bind
   time) must return the same rows as the literal-inlined path, and a
   template hit must ship the same tuples as its miss, on one backend
   and sharded. *)

open Tango_rel
open Tango_sql
open Tango_core
open Tango_workload
open Tango_dbms

let scale = 0.005

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- extraction ---- *)

let test_extract () =
  (match Parameterize.extract (Queries.q2_sql ~period_end:"1996-01-01") with
  | None -> Alcotest.fail "q2 carries literals and must parameterize"
  | Some e ->
      Alcotest.(check bool) "literals replaced by markers" true
        (has_sub ~sub:"$1" e.Parameterize.template
        && not (has_sub ~sub:"1996-01-01" e.Parameterize.template));
      Alcotest.(check int) "rate bound and two dates extracted" 3
        (List.length e.Parameterize.values);
      Alcotest.(check bool) "values keep their types" true
        (match e.Parameterize.values with
        | [ Value.Int 10; Value.Date _; Value.Date _ ] -> true
        | _ -> false);
      (* same shape, different literals: one template *)
      match Parameterize.extract (Queries.q2_sql ~period_end:"1997-06-15") with
      | None -> Alcotest.fail "same shape must parameterize"
      | Some e' ->
          Alcotest.(check string) "literal-varying spellings share a template"
            e.Parameterize.template e'.Parameterize.template);
  Alcotest.(check bool) "no literals, nothing to do" true
    (Parameterize.extract Queries.q1_sql = None);
  Alcotest.(check bool) "explicit bind variables are left alone" true
    (Parameterize.extract "SELECT A FROM T WHERE A < $1" = None);
  Alcotest.(check bool) "non-SELECT stays literal" true
    (Parameterize.extract "INSERT INTO T VALUES (1, 'x')" = None);
  Alcotest.(check bool) "garbage is rejected, not mangled" true
    (Parameterize.extract "SELECT 'unterminated" = None)

let test_value_of_string () =
  let check_v label s v =
    Alcotest.(check bool) label true (Parameterize.value_of_string s = v)
  in
  check_v "int" "42" (Value.Int 42);
  check_v "negative int" "-7" (Value.Int (-7));
  check_v "float" "3.5" (Value.Float 3.5);
  check_v "bool" "true" (Value.Bool true);
  check_v "null" "null" Value.Null;
  check_v "date" "1996-01-01"
    (Value.Date (Tango_temporal.Chronon.of_string "1996-01-01"));
  check_v "string fallback" "Boss" (Value.Str "Boss")

(* ---- QCheck differential: template path = literal-inlined path ---- *)

let fresh ~shard () =
  if shard then
    let topo =
      Uis.load_sharded ~scale ~roundtrip_spins:[ 0; 0; 0 ] ~shards:3 ()
    in
    Middleware.connect_topology topo
  else begin
    let db = Database.create () in
    Uis.load ~scale db;
    Middleware.connect ~roundtrip_spin:0 db
  end

let counters mw =
  List.map
    (fun b -> (Backend.name b, Backend.roundtrips b, Backend.tuples_shipped b))
    (Topology.backends (Middleware.topology mw))

let delta before after =
  List.map2
    (fun (n0, r0, t0) (n1, r1, t1) ->
      assert (String.equal n0 n1);
      (n0, r1 - r0, t1 - t0))
    before after

let pp_delta d =
  String.concat ","
    (List.map (fun (n, r, t) -> Printf.sprintf "%s:rt=%d,tup=%d" n r t) d)

let class_of (r : Middleware.report) =
  match r.Middleware.cache with
  | Some c -> c.Middleware.cache_class
  | None -> ""

let sql_of qi off =
  let date =
    Tango_temporal.Chronon.to_string
      (Tango_temporal.Chronon.of_string "1975-06-01" + off)
  in
  match qi with
  | 0 -> Queries.q2_sql ~period_end:date
  | 1 -> Queries.q3_sql ~start_bound:date
  | _ ->
      Printf.sprintf
        "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > %d"
        (off mod 40)

(* The differential proper.  Three runs of the same query:

   - [plain]: no cache — parse, optimize with literals inline, execute;
   - [miss]:  template path, first sighting — the generic plan is
     optimized with the parameters unresolved, then instantiated;
   - [hit]:   template hit — the cached generic plan is instantiated
     under the binding, pruned and executed.

   Rows must agree everywhere.  The generic plan may legitimately differ
   from the literal-bound plan, so tuple-shipping counters are compared
   only where the plans must coincide: hit = miss (bind-time
   instantiation is transparent). *)
let prop_template_equals_literal =
  QCheck.Test.make ~count:8 ~name:"template path = literal-inlined path"
    QCheck.(triple (int_range 0 2) (int_range 0 7500) bool)
    (fun (qi, off, shard) ->
      let sql = sql_of qi off in
      let plain = fresh ~shard () in
      let tmpl = fresh ~shard () in
      Middleware.set_config tmpl
        (Middleware.Config.with_plan_cache true (Middleware.config tmpl));
      let rp = Middleware.query plain sql in
      let c1 = counters tmpl in
      let rm = Middleware.query tmpl sql in
      let dm = delta c1 (counters tmpl) in
      let c2 = counters tmpl in
      let rh = Middleware.query tmpl sql in
      let dh = delta c2 (counters tmpl) in
      let rows_agree r =
        Relation.equal_multiset rp.Middleware.result r.Middleware.result
      in
      if not (String.equal (class_of rm) "miss") then
        QCheck.Test.fail_reportf "expected miss, got %S for %s" (class_of rm)
          sql
      else if not (String.equal (class_of rh) "template-hit") then
        QCheck.Test.fail_reportf "expected a template-hit, got %S for %s"
          (class_of rh) sql
      else if not (rows_agree rm && rows_agree rh) then
        QCheck.Test.fail_reportf
          "rows diverge for %s (shard=%b): plain=%d miss=%d hit=%d"
          sql shard
          (Relation.cardinality rp.Middleware.result)
          (Relation.cardinality rm.Middleware.result)
          (Relation.cardinality rh.Middleware.result)
      else if dh <> dm then
        QCheck.Test.fail_reportf
          "instantiation not transparent for %s (shard=%b): miss=[%s] hit=[%s]"
          sql shard (pp_delta dm) (pp_delta dh)
      else true)

let () =
  Alcotest.run "tango_parameterize"
    [
      ( "extraction",
        [
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "value typing" `Quick test_value_of_string;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_template_equals_literal ] );
    ]
