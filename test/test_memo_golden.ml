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
    ("q1/1", { classes = 15; elements = 28; considered = 35; fingerprint = "9450840eea900d7b"; cost = 0x1.b104fc31b46bdp+12 });
    ("q2/1", { classes = 35; elements = 82; considered = 91; fingerprint = "aa0d61e81b07e6df"; cost = 0x1.3630b6ca56bdcp+14 });
    ("q3/1", { classes = 24; elements = 56; considered = 55; fingerprint = "e31eb21009f57e49"; cost = 0x1.d2dc449dd1219p+14 });
    ("q4/1", { classes = 18; elements = 46; considered = 35; fingerprint = "c64ce082eba84318"; cost = 0x1.8afd099b488f2p+14 });
    ("q1/2", { classes = 15; elements = 28; considered = 31; fingerprint = "6cad27e478fc3246"; cost = 0x1.ba45a677e3b8bp+12 });
    ("q2/2", { classes = 35; elements = 82; considered = 82; fingerprint = "1999184979a647c7"; cost = 0x1.512d6bd8f2587p+14 });
    ("q3/2", { classes = 24; elements = 56; considered = 51; fingerprint = "30ce92eca5204b99"; cost = 0x1.2ca34923e5265p+15 });
    ("q4/2", { classes = 18; elements = 46; considered = 35; fingerprint = "1ffe03807ac8e5e8"; cost = 0x1.79da9a9835f12p+14 });
    ("self00", { classes = 24; elements = 56; considered = 55; fingerprint = "79b734bc5735526b"; cost = 0x1.2f2fb22feb56dp+13 });
    ("group00", { classes = 35; elements = 82; considered = 91; fingerprint = "17d44a7004a55bb1"; cost = 0x1.6a65baf2a0477p+14 });
    ("emp00", { classes = 21; elements = 51; considered = 40; fingerprint = "b140f66a5f6ebf8a"; cost = 0x1.8afd099b488f2p+14 });
    ("self01", { classes = 17; elements = 38; considered = 30; fingerprint = "56b79f840264da7d"; cost = 0x1.7869269bb0118p+12 });
    ("group01", { classes = 34; elements = 74; considered = 76; fingerprint = "08d29bf500303139"; cost = 0x1.e0a74db8322c3p+12 });
    ("emp01", { classes = 24; elements = 56; considered = 45; fingerprint = "1d254f79f5ac8506"; cost = 0x1.c216f77ba3052p+12 });
    ("self02", { classes = 21; elements = 51; considered = 50; fingerprint = "b09bee58aa3cdaf2"; cost = 0x1.b8368cefcefcdp+14 });
    ("group02", { classes = 34; elements = 74; considered = 76; fingerprint = "9736323f32be7809"; cost = 0x1.31ef0b4b60404p+13 });
    ("emp02", { classes = 21; elements = 51; considered = 40; fingerprint = "1739247af8032398"; cost = 0x1.c9dde99450584p+12 });
    ("self03", { classes = 20; elements = 43; considered = 35; fingerprint = "507c85423f79aef0"; cost = 0x1.4c7a9ba25ace2p+13 });
    ("group03", { classes = 41; elements = 101; considered = 110; fingerprint = "de489d17422d70d8"; cost = 0x1.b40ec675f280ap+14 });
    ("emp03", { classes = 24; elements = 56; considered = 45; fingerprint = "769dde85c9f36bcc"; cost = 0x1.212e8472ae53cp+14 });
    ("self04", { classes = 20; elements = 43; considered = 35; fingerprint = "82a07f9e0067f83f"; cost = 0x1.00466241de6edp+14 });
    ("group04", { classes = 37; elements = 88; considered = 90; fingerprint = "d423e16a83c73600"; cost = 0x1.a6adaf39376a3p+14 });
    ("emp04", { classes = 17; elements = 38; considered = 30; fingerprint = "a00ceb115bfacd21"; cost = 0x1.c8f18c57320a7p+12 });
    ("self05", { classes = 24; elements = 56; considered = 55; fingerprint = "54e27e7171901b6b"; cost = 0x1.4702a0b8a4d74p+13 });
    ("group05", { classes = 34; elements = 74; considered = 76; fingerprint = "80d56bbf965b6f22"; cost = 0x1.fdc6c86eb06bcp+12 });
    ("emp05", { classes = 24; elements = 56; considered = 45; fingerprint = "f108b9956e6286ee"; cost = 0x1.b5253c411c5b6p+12 });
    ("self06", { classes = 17; elements = 38; considered = 30; fingerprint = "8255216d5d2d0c37"; cost = 0x1.196cf56f06992p+13 });
    ("group06", { classes = 35; elements = 82; considered = 91; fingerprint = "72df37c77ea7e5e2"; cost = 0x1.43024758fe2ap+15 });
    ("emp06", { classes = 17; elements = 38; considered = 30; fingerprint = "92d271a176c9cc42"; cost = 0x1.597c39f624b3bp+14 });
    ("self07", { classes = 24; elements = 56; considered = 55; fingerprint = "9f3f257b4ebc6b26"; cost = 0x1.4911e02d20d4cp+13 });
    ("group07", { classes = 34; elements = 74; considered = 76; fingerprint = "23b923d7752872f1"; cost = 0x1.1442b6109eb4ap+13 });
    ("emp07", { classes = 20; elements = 43; considered = 35; fingerprint = "a866d3c08cc5dab2"; cost = 0x1.6b0b7e031fe3p+13 });
    ("self08", { classes = 20; elements = 43; considered = 35; fingerprint = "2cd4a24ab6a51a10"; cost = 0x1.d3d05f394013p+12 });
    ("group08", { classes = 41; elements = 101; considered = 110; fingerprint = "9c001892f274dce1"; cost = 0x1.6596ef6942963p+14 });
    ("emp08", { classes = 24; elements = 56; considered = 45; fingerprint = "eeed10652f41b07b"; cost = 0x1.81242f592361ap+12 });
    ("self09", { classes = 20; elements = 43; considered = 35; fingerprint = "501a1a9be37e2545"; cost = 0x1.2b412cbe7ef8ep+13 });
    ("group09", { classes = 44; elements = 106; considered = 115; fingerprint = "03272fd98a4e6c3e"; cost = 0x1.7448c255a12ddp+14 });
    ("emp09", { classes = 24; elements = 56; considered = 45; fingerprint = "2696a654c8779340"; cost = 0x1.8acb4fae276c3p+12 });
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
    ]
