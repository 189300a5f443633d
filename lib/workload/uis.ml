(** Synthetic stand-in for the University Information System dataset
    (TIMECENTER CD-1) the paper's experiments use.

    The generators are deterministic and match the published shape:
    - EMPLOYEE: 49,972 tuples, 31 attributes, ≈276 bytes/tuple (13.8 MB);
    - POSITION: 83,857 tuples, 8 attributes, ≈80 bytes/tuple (6.7 MB), with
      the time skew the paper reports: most periods fall after 1992 and
      about 65 % start in 1995 or later;
    - eight POSITION size variants (8k, 17k, …, 74k) drawn as prefixes of
      the full relation, as in Section 5.1.

    A [scale] factor shrinks everything proportionally so experiments run
    at laptop scale while preserving shapes. *)

open Tango_rel
open Tango_temporal

let employee_full_cardinality = 49_972
let position_full_cardinality = 83_857
let position_variant_cardinalities =
  [ 8_000; 17_000; 27_000; 36_000; 46_000; 55_000; 64_000; 74_000 ]

(* Deterministic pseudo-random stream (LCG). *)
type rng = { mutable state : int }

let rng seed = { state = (seed * 2654435761) land 0x3FFFFFFF }

let next r bound =
  r.state <- ((r.state * 1103515245) + 12345) land 0x3FFFFFFF;
  (* use the high bits: the low bits of a power-of-two LCG are periodic *)
  if bound <= 0 then 0 else (r.state lsr 13) mod bound

let pick r xs = List.nth xs (next r (List.length xs))

let first_names =
  [ "Tom"; "Jane"; "Maria"; "John"; "Wei"; "Anna"; "Luis"; "Kate"; "Omar";
    "Ivan"; "Mia"; "Noah"; "Emma"; "Liam"; "Sofia"; "Hugo" ]

let last_names =
  [ "Smith"; "Jensen"; "Garcia"; "Chen"; "Muller"; "Rossi"; "Novak";
    "Dubois"; "Silva"; "Kim"; "Lopez"; "Brown"; "Olsen"; "Petrov" ]

let departments =
  [ "CS"; "MATH"; "PHYS"; "CHEM"; "BIO"; "HIST"; "ECON"; "LAW"; "MED"; "ART" ]

let statuses = [ "FT"; "PT"; "TEMP"; "ADJ" ]

(* ------------------------------------------------------------------ *)
(* POSITION                                                              *)
(* ------------------------------------------------------------------ *)

let position_schema =
  Schema.make
    [
      ("PosID", Value.TInt); ("EmpID", Value.TInt); ("EmpName", Value.TStr);
      ("Dept", Value.TStr); ("PayRate", Value.TFloat); ("Status", Value.TStr);
      ("T1", Value.TDate); ("T2", Value.TDate);
    ]

let day y m d = Chronon.of_ymd ~y ~m ~d

(* Hiring skew: 35 % of periods start uniformly in 1980–1994, 65 % in
   1995–2000 (the paper: "about 65 % of the POSITION tuples have
   time-periods starting at 1995 or later"; "most of the POSITION data is
   concentrated after 1992"). *)
let position_start r =
  if next r 100 < 65 then
    day 1995 1 1 + next r (day 2000 6 1 - day 1995 1 1)
  else day 1980 1 1 + next r (day 1995 1 1 - day 1980 1 1)

(** Generate [n] POSITION tuples ([n] defaults to the full 83,857). *)
let position ?(n = position_full_cardinality) ?(employees = employee_full_cardinality)
    () : Relation.t =
  let r = rng 20010521 in
  let distinct_positions = max 4 (n / 40) in
  let tuples =
    List.init n (fun _i ->
        let pos_id = 1 + next r distinct_positions in
        let emp_id = 1 + next r (max 1 employees) in
        let name = pick r first_names ^ " " ^ pick r last_names in
        let dept = pick r departments in
        let pay = 5.0 +. (float_of_int (next r 2500) /. 100.0) in
        let status = pick r statuses in
        let t1 = position_start r in
        let dur = 30 + next r 1470 in
        let t2 = min (t1 + dur) (day 2000 12 31) in
        let t2 = if t2 <= t1 then t1 + 1 else t2 in
        Tuple.of_list
          [
            Value.Int pos_id; Value.Int emp_id; Value.Str name;
            Value.Str dept; Value.Float pay; Value.Str status;
            Value.Date t1; Value.Date t2;
          ])
  in
  Relation.of_list position_schema tuples

(* ------------------------------------------------------------------ *)
(* EMPLOYEE                                                              *)
(* ------------------------------------------------------------------ *)

(** 31 attributes: identity, contact and HR fields plus rating/flag filler
    columns, sized to the published 276-byte average. *)
let employee_schema =
  Schema.make
    ([
       ("EmpID", Value.TInt); ("Name", Value.TStr); ("Address", Value.TStr);
       ("City", Value.TStr); ("State", Value.TStr); ("Zip", Value.TStr);
       ("Phone", Value.TStr); ("Email", Value.TStr); ("Dept", Value.TStr);
       ("Title", Value.TStr); ("Grade", Value.TInt); ("Salary", Value.TFloat);
       ("HireDate", Value.TDate); ("BirthDate", Value.TDate);
       ("Gender", Value.TStr); ("Citizen", Value.TStr); ("Office", Value.TStr);
       ("Fax", Value.TStr); ("Super", Value.TInt);
     ]
    @ List.init 12 (fun i -> ("Attr" ^ string_of_int (i + 1), Value.TStr)))

let employee ?(n = employee_full_cardinality) () : Relation.t =
  let r = rng 19990101 in
  let tuples =
    List.init n (fun i ->
        let emp_id = i + 1 in
        let name = pick r first_names ^ " " ^ pick r last_names in
        let s len tag = Value.Str (Printf.sprintf "%s%0*d" tag len (next r 100000)) in
        Tuple.of_list
          ([
             Value.Int emp_id; Value.Str name;
             Value.Str (Printf.sprintf "%d Univ Ave" (next r 9999));
             s 6 "City"; Value.Str (pick r [ "AZ"; "CA"; "NY"; "TX"; "WA" ]);
             s 5 "Z"; s 7 "555"; Value.Str (String.lowercase_ascii name ^ "@u.edu");
             Value.Str (pick r departments); s 6 "Title";
             Value.Int (1 + next r 9);
             Value.Float (20000.0 +. float_of_int (next r 80000));
             Value.Date (day 1975 1 1 + next r 9000);
             Value.Date (day 1940 1 1 + next r 14000);
             Value.Str (pick r [ "F"; "M" ]); Value.Str (pick r [ "Y"; "N" ]);
             s 4 "Bldg"; s 7 "556"; Value.Int (1 + next r 500);
           ]
          @ List.init 12 (fun j -> s (1 + ((i + j) mod 3)) "v")))
  in
  Relation.of_list employee_schema tuples

(* ------------------------------------------------------------------ *)
(* Database setup                                                        *)
(* ------------------------------------------------------------------ *)

(** Load a scaled UIS database: POSITION and EMPLOYEE, plus ANALYZE.
    [scale] multiplies the published cardinalities. *)
let load ?(scale = 1.0) ?histograms (db : Tango_dbms.Database.t) : unit =
  let n_pos =
    max 10 (int_of_float (scale *. float_of_int position_full_cardinality))
  in
  let n_emp =
    max 10 (int_of_float (scale *. float_of_int employee_full_cardinality))
  in
  Tango_dbms.Database.load_relation db "POSITION" (position ~n:n_pos ~employees:n_emp ());
  Tango_dbms.Database.load_relation db "EMPLOYEE" (employee ~n:n_emp ());
  (* EMPLOYEE is keyed by EmpID; the index enables the DBMS's index
     nested-loop join (the paper's fast Query 4 plan). *)
  Tango_dbms.Database.create_index db ~clustered:true "EMPLOYEE" "EmpID";
  Tango_dbms.Database.analyze_all db ?histograms ()

(* ------------------------------------------------------------------ *)
(* Sharded setup                                                         *)
(* ------------------------------------------------------------------ *)

(** Load a scaled UIS database range-partitioned over [shards] in-process
    backends: POSITION is sliced on its period start [T1] at the data's
    quantiles (so the published time skew still yields even shards), and
    EMPLOYEE — with its clustered EmpID index — is replicated to every
    backend.  [roundtrip_spins] simulates per-backend network latencies.
    The result is ready for {!Tango_dbms.Topology} consumers. *)
let load_sharded ?(scale = 1.0) ?histograms ?(roundtrip_spins = [])
    ~shards () : Tango_dbms.Topology.t =
  if shards < 1 then invalid_arg "Uis.load_sharded: shards must be >= 1";
  let n_pos =
    max 10 (int_of_float (scale *. float_of_int position_full_cardinality))
  in
  let n_emp =
    max 10 (int_of_float (scale *. float_of_int employee_full_cardinality))
  in
  let pos = position ~n:n_pos ~employees:n_emp () in
  let emp = employee ~n:n_emp () in
  let t1_ix = Schema.index position_schema "T1" in
  let chronon_of t =
    match Tuple.get t t1_ix with
    | Value.Date c | Value.Int c -> c
    | _ -> invalid_arg "Uis.load_sharded: non-chronon T1"
  in
  let starts = Array.map chronon_of (Relation.tuples pos) in
  let bounds = Tango_dbms.Topology.quantile_bounds starts shards in
  let in_bounds (b : Tango_dbms.Topology.bounds) c =
    (match b.Tango_dbms.Topology.lo with None -> true | Some lo -> c >= lo)
    && match b.Tango_dbms.Topology.hi with None -> true | Some hi -> c < hi
  in
  let spin_of i = List.nth_opt roundtrip_spins i in
  let shard_list =
    List.mapi
      (fun i b ->
        let db = Tango_dbms.Database.create () in
        let slice =
          Relation.of_list position_schema
            (Array.to_list (Relation.tuples pos)
            |> List.filter (fun t -> in_bounds b (chronon_of t)))
        in
        Tango_dbms.Database.load_relation db "POSITION" slice;
        Tango_dbms.Database.load_relation db "EMPLOYEE" emp;
        Tango_dbms.Database.create_index db ~clustered:true "EMPLOYEE" "EmpID";
        Tango_dbms.Database.analyze_all db ?histograms ();
        let backend =
          Tango_dbms.Backend.in_process
            ~name:(Printf.sprintf "shard%d" i)
            ?roundtrip_spin:(spin_of i) db
        in
        (backend, b))
      bounds
  in
  Tango_dbms.Topology.create ~partitioned:("POSITION", "T1") shard_list
