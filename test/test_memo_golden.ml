(* Golden optimizer corpus: for Queries 1-4 (on one backend and on two
   shards) and seeded ad hoc queries of three structural shapes, the memo
   size, the number of physical alternatives examined, and the chosen
   plan's fingerprint and estimated cost must match a recorded table
   exactly.  Any change to the rules, the memo or the physical search that
   moves one of these numbers is a plan-choice change and must re-record
   the table on purpose.

   The second check is the invariant the memo's stored logical properties
   rest on: in every class of every corpus memo, each element's one-level
   schema and location — derived from its children's stored properties —
   equal the class's stored properties.

   The last two checks hold the optimizer's incremental paths to their
   references on a wider corpus (Queries 1-4 on one to three shards and
   102 more seeded ad hoc queries): saturation that re-probes only
   elements whose inputs changed must build the memo the naive fixpoint
   loop builds, firing the same rules; and each class's one-level
   statistics must equal those derived over the class's extracted
   representative tree, bit for bit. *)

open Tango_core
open Tango_workload
open Tango_volcano

let scale = 0.005

(* ------------------------------------------------------------------ *)
(* Ad hoc queries: three shapes with seeded structural variety          *)
(* ------------------------------------------------------------------ *)

(* Ten queries of each shape, interleaved, from one seeded stream. *)
let adhoc =
  let st = Random.State.make [| 12 |] in
  List.concat_map
    (fun i ->
      List.map
        (fun (shape, make) -> (Printf.sprintf "%s%02d" shape i, make st))
        Adhoc_queries.
          [ ("self", self_join); ("group", group_join); ("emp", employee_join) ])
    (List.init 10 Fun.id)

(* ------------------------------------------------------------------ *)
(* The recorded table                                                   *)
(* ------------------------------------------------------------------ *)

type golden = {
  classes : int;
  elements : int;
  considered : int;
  fingerprint : string;
  cost : float;  (** the chosen plan's total_cost, bit-exact *)
}

let expected : (string * golden) list =
  [
    ("q1/1", { classes = 15; elements = 28; considered = 35; fingerprint = "9450840eea900d7b"; cost = 0x1.802f52d9e4d57p+9 });
    ("q2/1", { classes = 35; elements = 82; considered = 91; fingerprint = "aa0d61e81b07e6df"; cost = 0x1.6261ad2179ca7p+11 });
    ("q3/1", { classes = 24; elements = 56; considered = 55; fingerprint = "e31eb21009f57e49"; cost = 0x1.20f86f5429c02p+12 });
    ("q4/1", { classes = 18; elements = 46; considered = 35; fingerprint = "b1f7c1ed0a09d473"; cost = 0x1.9a183e26268b9p+11 });
    ("q1/2", { classes = 15; elements = 28; considered = 31; fingerprint = "6cad27e478fc3246"; cost = 0x1.86dfb53903891p+9 });
    ("q2/2", { classes = 35; elements = 82; considered = 82; fingerprint = "1999184979a647c7"; cost = 0x1.65494b66419d4p+11 });
    ("q3/2", { classes = 24; elements = 56; considered = 51; fingerprint = "30ce92eca5204b99"; cost = 0x1.4aac85ea3f37ep+12 });
    ("q4/2", { classes = 18; elements = 46; considered = 35; fingerprint = "1ffe03807ac8e5e8"; cost = 0x1.7aa424630ebe2p+11 });
    ("self00", { classes = 24; elements = 56; considered = 55; fingerprint = "79b734bc5735526b"; cost = 0x1.1ccf768f74006p+11 });
    ("group00", { classes = 35; elements = 82; considered = 91; fingerprint = "17d44a7004a55bb1"; cost = 0x1.519c2c3d78682p+11 });
    ("emp00", { classes = 21; elements = 51; considered = 40; fingerprint = "3168329c919c6be3"; cost = 0x1.9a183e26268b9p+11 });
    ("self01", { classes = 17; elements = 38; considered = 30; fingerprint = "56b79f840264da7d"; cost = 0x1.0a38339bbd643p+10 });
    ("group01", { classes = 34; elements = 74; considered = 76; fingerprint = "08d29bf500303139"; cost = 0x1.e208c296ae8d9p+9 });
    ("emp01", { classes = 24; elements = 56; considered = 45; fingerprint = "54530389e95921c5"; cost = 0x1.e0d0bbc9fa206p+9 });
    ("self02", { classes = 21; elements = 51; considered = 50; fingerprint = "b09bee58aa3cdaf2"; cost = 0x1.d3973b5b29f98p+11 });
    ("group02", { classes = 34; elements = 74; considered = 76; fingerprint = "9736323f32be7809"; cost = 0x1.28ad3cb0faac9p+10 });
    ("emp02", { classes = 21; elements = 51; considered = 40; fingerprint = "00480e0f0e718f17"; cost = 0x1.e7237eb2c9f0cp+9 });
    ("self03", { classes = 20; elements = 43; considered = 35; fingerprint = "507c85423f79aef0"; cost = 0x1.8dbb609ab5a2fp+10 });
    ("group03", { classes = 41; elements = 101; considered = 110; fingerprint = "de489d17422d70d8"; cost = 0x1.c8b62ee83c28p+11 });
    ("emp03", { classes = 24; elements = 56; considered = 45; fingerprint = "769dde85c9f36bcc"; cost = 0x1.1d1caf7cc8421p+11 });
    ("self04", { classes = 20; elements = 43; considered = 35; fingerprint = "82a07f9e0067f83f"; cost = 0x1.3d48fe27cb9b1p+11 });
    ("group04", { classes = 37; elements = 88; considered = 90; fingerprint = "d423e16a83c73600"; cost = 0x1.bbf6a13c35cb3p+11 });
    ("emp04", { classes = 17; elements = 38; considered = 30; fingerprint = "d326b6b35894101a"; cost = 0x1.e66ff3e171e5dp+9 });
    ("self05", { classes = 24; elements = 56; considered = 55; fingerprint = "07ea71146d704f0c"; cost = 0x1.b0eadededf9ep+10 });
    ("group05", { classes = 34; elements = 74; considered = 76; fingerprint = "15cf90057568e765"; cost = 0x1.4b1d9751cd629p+10 });
    ("emp05", { classes = 24; elements = 56; considered = 45; fingerprint = "f108b9956e6286ee"; cost = 0x1.d10c7776ff2b5p+9 });
    ("self06", { classes = 17; elements = 38; considered = 30; fingerprint = "8255216d5d2d0c37"; cost = 0x1.0acb0efd6568bp+11 });
    ("group06", { classes = 35; elements = 82; considered = 91; fingerprint = "72df37c77ea7e5e2"; cost = 0x1.a9a3a0348dc56p+12 });
    ("emp06", { classes = 17; elements = 38; considered = 30; fingerprint = "92d271a176c9cc42"; cost = 0x1.5d257d160a6ecp+11 });
    ("self07", { classes = 24; elements = 56; considered = 55; fingerprint = "9f3f257b4ebc6b26"; cost = 0x1.93d7c04f3be8cp+10 });
    ("group07", { classes = 34; elements = 74; considered = 76; fingerprint = "dce06a1389523dba"; cost = 0x1.719dd70504c83p+10 });
    ("emp07", { classes = 20; elements = 43; considered = 35; fingerprint = "65de42379ab54857"; cost = 0x1.73c6ac957270bp+10 });
    ("self08", { classes = 20; elements = 43; considered = 35; fingerprint = "df61dbd3d95a5205"; cost = 0x1.9e28765813969p+10 });
    ("group08", { classes = 41; elements = 101; considered = 110; fingerprint = "9c001892f274dce1"; cost = 0x1.5bd780f780ac8p+11 });
    ("emp08", { classes = 24; elements = 56; considered = 45; fingerprint = "e55e20b5eb6ef930"; cost = 0x1.a1c624a8ba60fp+9 });
    ("self09", { classes = 20; elements = 43; considered = 35; fingerprint = "501a1a9be37e2545"; cost = 0x1.3d0afbbf4755ap+10 });
    ("group09", { classes = 44; elements = 106; considered = 115; fingerprint = "03272fd98a4e6c3e"; cost = 0x1.ae0f0a65cdf39p+11 });
    ("emp09", { classes = 24; elements = 56; considered = 45; fingerprint = "2696a654c8779340"; cost = 0x1.a907566742065p+9 });
  ]

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

let sessions =
  lazy
    (let db = Tango_dbms.Database.create () in
     Uis.load ~scale db;
     let one = Middleware.connect ~roundtrip_spin:0 db in
     let two =
       Middleware.connect_topology
         (Uis.load_sharded ~scale ~roundtrip_spins:[ 0; 0 ] ~shards:2 ())
     in
     (one, two))

(* Every corpus entry with the session it is planned in. *)
let corpus () =
  let one, two = Lazy.force sessions in
  List.map (fun (q, sql) -> (q ^ "/1", one, sql)) Queries.workload
  @ List.map (fun (q, sql) -> (q ^ "/2", two, sql)) Queries.workload
  @ List.map (fun (name, sql) -> (name, one, sql)) adhoc

let initial mw sql =
  Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) sql

let observe mw sql =
  let r =
    Middleware.optimize mw ~required_order:(Tango_tsql.Compile.required_order sql)
      (initial mw sql)
  in
  match r.Search.plan with
  | None -> Alcotest.failf "no plan for %s" sql
  | Some plan ->
      {
        classes = r.Search.classes;
        elements = r.Search.elements;
        considered = r.Search.considered;
        fingerprint = Physical.fingerprint plan;
        cost = plan.Physical.total_cost;
      }

let row name g =
  Printf.sprintf
    "(%S, { classes = %d; elements = %d; considered = %d; fingerprint = %S; \
     cost = %h });"
    name g.classes g.elements g.considered g.fingerprint g.cost

let test_golden () =
  let mismatches =
    List.filter_map
      (fun (name, mw, sql) ->
        let got = observe mw sql in
        match List.assoc_opt name expected with
        | Some want when want = got -> None
        | _ -> Some (row name got))
      (corpus ())
  in
  if mismatches <> [] then
    Alcotest.failf "%d corpus entries differ from the recorded table; actual:\n%s"
      (List.length mismatches)
      (String.concat "\n" mismatches)

(* Two derivations agree: equal values, or failures with the same
   message. *)
let same_result eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal (Printexc.to_string x) (Printexc.to_string y)
  | _ -> false

let show_schema = function
  | Ok s -> Tango_rel.Schema.to_string s
  | Error e -> Printexc.to_string e

let test_element_props () =
  List.iter
    (fun (name, mw, sql) ->
      let m = Memo.create () in
      ignore (Memo.insert_op m (initial mw sql));
      Rules.saturate m;
      Alcotest.(check int)
        (name ^ ": same memo as the search")
        (List.assoc name expected).classes (Memo.class_count m);
      List.iter
        (fun c ->
          let stored = Memo.props m c in
          List.iter
            (fun el ->
              let derived = Memo.derive m el in
              if not (same_result Tango_rel.Schema.equal stored.Memo.schema derived.Memo.schema)
              then
                Alcotest.failf "%s class %d: stored schema %s, element yields %s" name c
                  (show_schema stored.Memo.schema) (show_schema derived.Memo.schema);
              if not (same_result ( = ) stored.Memo.location derived.Memo.location) then
                Alcotest.failf "%s class %d: element disagrees on location" name c)
            (Memo.elements m c))
        (Memo.classes m))
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Incremental paths against their references                           *)
(* ------------------------------------------------------------------ *)

let equivalence_corpus =
  lazy
    (let one, two = Lazy.force sessions in
     let three =
       Middleware.connect_topology
         (Uis.load_sharded ~scale ~roundtrip_spins:[ 0; 0; 0 ] ~shards:3 ())
     in
     List.concat_map
       (fun (tag, mw) ->
         List.map (fun (q, sql) -> (q ^ tag, mw, sql)) Queries.workload)
       [ ("/1", one); ("/2", two); ("/3", three) ]
     @ List.map
         (fun (q, sql) -> (q, one, sql))
         (Adhoc_queries.seeded ~seed:13 102))

let fresh_memo mw sql =
  let m = Memo.create () in
  let root = Memo.insert_op m (initial mw sql) in
  (m, root)

(* The reference saturation: every rule on every element of every class,
   pass after pass, until a pass fires nothing.  Returns the rules fired
   and the element sweeps made. *)
let naive_saturate m =
  let max_elements = Rules.max_elements in
  let fired = ref 0 and sweeps = ref 0 in
  let changed = ref true in
  while !changed && Memo.element_count m < max_elements do
    changed := false;
    List.iter
      (fun c ->
        let c = Memo.find m c in
        List.iter
          (fun el ->
            if Memo.element_count m < max_elements then begin
              incr sweeps;
              List.iter
                (fun (r : Rules.rule) ->
                  if r.Rules.apply m c el then begin
                    incr fired;
                    changed := true
                  end)
                Rules.all
            end)
          (Memo.elements m c))
      (Memo.classes m)
  done;
  (!fired, !sweeps)

let counter = Tango_obs.Counter.make

let test_incremental_saturation () =
  let fired = counter "volcano.rules_fired" in
  let probes = counter "volcano.rule_probes" in
  let corpus = Lazy.force equivalence_corpus in
  let naive_sweeps = ref 0 and probes_made = ref 0 in
  List.iter
    (fun (name, mw, sql) ->
      let reference, _ = fresh_memo mw sql in
      let want_fired, sweeps = naive_saturate reference in
      let m, _ = fresh_memo mw sql in
      let f0 = Tango_obs.Counter.value fired in
      let p0 = Tango_obs.Counter.value probes in
      Rules.saturate m;
      naive_sweeps := !naive_sweeps + sweeps;
      probes_made := !probes_made + Tango_obs.Counter.value probes - p0;
      let shape m = (Memo.class_count m, Memo.element_count m, Memo.classes m) in
      if shape reference <> shape m then
        Alcotest.failf "%s: memo shape differs from the naive loop's" name;
      let got_fired = Tango_obs.Counter.value fired - f0 in
      if got_fired <> want_fired then
        Alcotest.failf "%s: %d rules fired, the naive loop fired %d" name
          got_fired want_fired;
      List.iter
        (fun c ->
          let els m = List.sort compare (Memo.elements m c) in
          if els reference <> els m then
            Alcotest.failf "%s: class %d holds different elements" name c)
        (Memo.classes m))
    corpus;
  let per_query n = float_of_int n /. float_of_int (List.length corpus) in
  Printf.printf "element sweeps per query: naive %.1f, incremental %.1f\n"
    (per_query !naive_sweeps) (per_query !probes_made);
  Alcotest.(check bool)
    "incremental saturation probes no more than the naive loop" true
    (!probes_made <= !naive_sweeps)

let show_stats = function
  | None -> "none"
  | Some (s : Tango_stats.Rel_stats.t) ->
      Printf.sprintf "card %h, columns %s" s.Tango_stats.Rel_stats.card
        (String.concat " "
           (List.map
              (fun (n, (c : Tango_stats.Rel_stats.col)) ->
                Printf.sprintf "%s(d=%h%s%s)" n c.Tango_stats.Rel_stats.distinct
                  (if c.Tango_stats.Rel_stats.indexed then ",idx" else "")
                  (if c.Tango_stats.Rel_stats.histogram = None then "" else ",hist"))
              s.Tango_stats.Rel_stats.cols))

let test_class_stats () =
  List.iter
    (fun (name, mw, sql) ->
      let m, root = fresh_memo mw sql in
      Rules.saturate m;
      let stats_env = Middleware.stats_env mw in
      let p =
        Physical.create ?partition:(Middleware.partition_layout mw) ~memo:m
          ~factors:(Middleware.factors mw) ~stats_env ()
      in
      (* fill the statistics cache in the order the plan search does *)
      ignore
        (Physical.best p root
           {
             Physical.loc = Tango_algebra.Op.Mw;
             order = Tango_tsql.Compile.required_order sql;
           });
      List.iter
        (fun c ->
          let want =
            try Some (Tango_stats.Derive.derive stats_env (Memo.extract m c))
            with _ -> None
          in
          let got = Physical.class_stats p c in
          (* [compare], not [=]: bit-exact, and NaN equals itself *)
          if compare want got <> 0 then
            Alcotest.failf "%s class %d: one-level statistics %s, extracted tree %s"
              name c (show_stats got) (show_stats want))
        (Memo.classes m))
    (Lazy.force equivalence_corpus)

(* ------------------------------------------------------------------ *)
(* The ledger's paper_scan picks                                        *)
(* ------------------------------------------------------------------ *)

(* Queries 1-4 as the ledger's paper_scan workload runs them: UIS at
   scale 0.04, the default factors, the plan cache and
   auto-parameterization on, so Queries 2 and 3 run their generic
   template plans.  A factor or rule change that moves one of these picks
   must re-record it here (and in CI's plan pins) on purpose. *)
let test_paper_scan_picks () =
  let db = Tango_dbms.Database.create () in
  Uis.load ~scale:0.04 db;
  let mw =
    Middleware.connect ~config:Middleware.Config.(default |> with_plan_cache true) db
  in
  List.iter
    (fun (name, sql, expected) ->
      let r = Middleware.query mw sql in
      Alcotest.(check string) name expected (Physical.fingerprint r.Middleware.physical))
    [
      ("q1", Queries.q1_sql, "9450840eea900d7b");
      ("q2", Queries.q2_sql ~period_end:"1996-01-01", "aa0d61e81b07e6df");
      ("q3", Queries.q3_sql ~start_bound:"1996-01-01", "e31eb21009f57e49");
      ("q4", Queries.q4_sql, "b1f7c1ed0a09d473");
    ]

let () =
  Alcotest.run "memo_golden"
    [
      ( "corpus",
        [
          Alcotest.test_case "plans match the table" `Quick test_golden;
          Alcotest.test_case "element properties match the class" `Quick
            test_element_props;
          Alcotest.test_case "incremental saturation = naive loop" `Quick
            test_incremental_saturation;
          Alcotest.test_case "one-level class statistics = extracted tree" `Quick
            test_class_stats;
        ] );
      ("ledger", [ Alcotest.test_case "paper_scan picks" `Quick test_paper_scan_picks ]);
    ]
