(* Shared harness of the ledger benchmark: run parameters, sample
   statistics, result fingerprints, the closed loop, work kept out
   of the measured process (set-ups and oracles), and seeded streams. *)

open Tango_rel

type params = {
  seed : int;
  seconds : float;  (** wall-clock length of the measured window *)
  trace : bool;  (** replay the stream layer by layer instead *)
  smoke : bool;  (** tiny sizes, a few ops, every output checked *)
}

(* Ops the traced run replays at most: the head of the seeded stream, so
   every traced run of a workload sees the same ops. *)
let traced_ops = 300

(* Smoke runs: ops per workload, and the size every workload uses. *)
let smoke_ops = 50
let smoke_scale = 0.002

let mono_us = Tango_obs.mono_us

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* Quantile by linear interpolation between closest ranks; 0 when empty. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let ratio num den = if den > 0.0 then num /. den else 0.0

(* ------------------------------------------------------------------ *)
(* Result checks                                                        *)
(* ------------------------------------------------------------------ *)

(* Numerics hash by numeric value, matching [Value.compare], which
   equates [Int 3] and [Float 3.0]. *)
let value_hash (v : Value.t) =
  match v with
  | Value.Null -> 0
  | Value.Bool b -> Hashtbl.hash b
  | Value.Int _ | Value.Float _ | Value.Date _ ->
      Hashtbl.hash (Int64.to_int (Int64.bits_of_float (Value.to_float v)))
  | Value.Str s -> Hashtbl.hash s

let tuple_hash (t : Tuple.t) =
  Array.fold_left (fun h v -> (h * 1_000_003) + value_hash v) 17 t

(* A result's identity up to row order: cardinality and an
   order-independent (summed) hash of its tuples. *)
type fingerprint = { rows : int; multiset : int }

let fingerprint (r : Relation.t) =
  {
    rows = Relation.cardinality r;
    multiset = Array.fold_left (fun acc t -> acc + tuple_hash t) 0 (Relation.tuples r);
  }

(* Is [r] sorted on the ORDER BY keys?  Keys name result columns (the
   queries order on output names such as [PosID]). *)
let sorted_on (order : Order.t) (r : Relation.t) =
  let schema = Relation.schema r in
  let keys =
    List.map
      (fun (k : Order.key) ->
        (Schema.index schema k.Order.attr, k.Order.dir = Order.Asc))
      order
  in
  let cmp a b =
    List.fold_left
      (fun c (i, asc) ->
        if c <> 0 then c
        else
          let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
          if asc then c else -c)
      0 keys
  in
  let ts = Relation.tuples r in
  let ok = ref true in
  for i = 1 to Array.length ts - 1 do
    if cmp ts.(i - 1) ts.(i) > 0 then ok := false
  done;
  !ok

(* Same rows with the same multiplicities, in the order the query asks
   for.  Ties under the ORDER BY may come out in any order, so the check
   is the multiset fingerprint plus sortedness, not list equality. *)
let matches ~order (fp : fingerprint) actual =
  fingerprint actual = fp && sorted_on order actual

(* The oracle for a query: its initial plan, which runs everything in
   the DBMS below one TRANSFER^M, executed as written.  (The paper's
   hand-built Query 2 plans are not: they also clip result periods to the
   query window, which the SQL text does not ask for.) *)
let all_dbms session sql =
  let open Tango_core in
  let initial =
    Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup session) sql
  in
  let order = Tango_tsql.Compile.required_order sql in
  (Middleware.run_fixed session ~required_order:order initial).Middleware.result

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)
(* ------------------------------------------------------------------ *)

(* One client, one request in flight: the next op is sent only after the
   previous reply, as a TANGO caller blocks on its query. *)
type loop = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : (string * float) list;  (** (class, µs), newest first *)
}

(* Run ops 0, 1, ... until [seconds] of wall time have passed or
   [max_ops] ran.  [op i] names the op's class and returns the timed
   action; the action returns the check, which runs untimed.  An op that
   raises or fails its check counts as failed; only completed ops
   contribute latency samples. *)
let closed_loop ~seconds ?(max_ops = max_int)
    (op : int -> string * (unit -> unit -> bool)) : loop =
  let l = { attempted = 0; failed = 0; samples = [] } in
  let deadline = mono_us () +. (seconds *. 1e6) in
  let i = ref 0 in
  while !i < max_ops && mono_us () < deadline do
    let cls, action = op !i in
    l.attempted <- l.attempted + 1;
    let t0 = mono_us () in
    (match action () with
    | check ->
        l.samples <- (cls, mono_us () -. t0) :: l.samples;
        let ok = try check () with _ -> false in
        if not ok then begin
          Printf.eprintf "ledger: op %d (%s) returned a wrong result\n%!" !i cls;
          l.failed <- l.failed + 1
        end
    | exception e ->
        Printf.eprintf "ledger: op %d (%s) raised %s\n%!" !i cls
          (Printexc.to_string e);
        l.failed <- l.failed + 1);
    incr i
  done;
  l

let latencies ?cls (l : loop) =
  Array.of_list
    (List.filter_map
       (fun (c, us) ->
         match cls with
         | Some want when not (String.equal want c) -> None
         | _ -> Some us)
       l.samples)

let class_p50_ms l cls = median (latencies ~cls l) /. 1000.0

(* ------------------------------------------------------------------ *)
(* Isolation and set-up timing                                          *)
(* ------------------------------------------------------------------ *)

(* [isolated f] runs [f] in a forked child and returns its result, read
   back through a pipe, so what [f] allocates never enters this
   process's heap.  Only for work before the measured window: after a
   fork this heap is copy-on-write, and the next writes to each page
   fault.  The child exits without running [at_exit] handlers; an
   exception in [f] is re-raised here as [Failure]. *)
let isolated (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      (try
         Marshal.to_channel oc r [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "child died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error m -> failwith ("ledger: isolated: " ^ m))

(* Oracles run in a checker process, forked once before the measured
   window and asked synchronously over pipes.  The client waits for each
   verdict, so nothing runs beside a timed op, and what an oracle
   allocates never enters the measured process's heap or GC.  [answer]
   may keep state across requests; an exception counts as a wrong
   result. *)
type 'a checker = { pid : int; requests : out_channel; verdicts : in_channel }

let checker (answer : 'a -> bool) : 'a checker =
  flush_all ();
  let req_r, req_w = Unix.pipe () and ver_r, ver_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close ver_r;
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr ver_w in
      (try
         while true do
           let request : 'a = Marshal.from_channel ic in
           Marshal.to_channel oc (try answer request with _ -> false) [];
           flush oc
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close ver_w;
      {
        pid;
        requests = Unix.out_channel_of_descr req_w;
        verdicts = Unix.in_channel_of_descr ver_r;
      }

let ask (c : 'a checker) (request : 'a) : bool =
  Marshal.to_channel c.requests request [];
  flush c.requests;
  Marshal.from_channel c.verdicts

let stop_checker c =
  close_out_noerr c.requests;
  close_in_noerr c.verdicts;
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid)

(* Set-up repetitions per run; the median is reported. *)
let setup_reps = 5

(* Time [setup] [setup_reps] times and return the median seconds with
   the last set-up's value.  The extra set-ups run isolated, so their
   garbage never inflates this process's heap. *)
let timed_setup (setup : unit -> 'a) : float * 'a =
  let seconds f =
    let t0 = mono_us () in
    let v = f () in
    ((mono_us () -. t0) /. 1e6, v)
  in
  let others =
    List.init (setup_reps - 1) (fun _ -> isolated (fun () -> fst (seconds setup)))
  in
  let mine, v = seconds setup in
  (median (Array.of_list (mine :: others)), v)

(* A seeded stream generator: [Random.State] is deterministic per seed;
   [salt] separates a workload's independent streams. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

(* Draws from a deck: each call deals the next of [items] from a seeded
   shuffle, reshuffling when the deck runs out.  Every [List.length items]
   consecutive draws deal each item once, so a mix is exact over every
   deck and two seeds differ only in the order of the ops — not in their
   proportions, which would otherwise move the metrics from seed to
   seed. *)
let deck st items =
  let pending = ref [] in
  fun () ->
    if !pending = [] then
      pending :=
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) items));
    match !pending with
    | x :: rest ->
        pending := rest;
        x
    | [] -> invalid_arg "Common.deck: no items"

let repeat n x = List.init n (fun _ -> x)

(* A seeded date in [lo_year, hi_year), as an ISO string. *)
let date st ~lo_year ~hi_year =
  let lo = Tango_temporal.Chronon.of_ymd ~y:lo_year ~m:1 ~d:1 in
  let hi = Tango_temporal.Chronon.of_ymd ~y:hi_year ~m:1 ~d:1 in
  Tango_temporal.Chronon.to_string (lo + Random.State.int st (hi - lo))

(* Seeded dates in [lo_year, hi_year), as ISO strings, stratified: the
   range is cut into 16 strata dealt from a deck, and each draw lands
   uniformly inside its stratum. *)
let dates st ~lo_year ~hi_year =
  let lo = Tango_temporal.Chronon.of_ymd ~y:lo_year ~m:1 ~d:1 in
  let hi = Tango_temporal.Chronon.of_ymd ~y:hi_year ~m:1 ~d:1 in
  let strata = 16 in
  let next = deck st (List.init strata Fun.id) in
  let width = (hi - lo) / strata in
  fun () ->
    Tango_temporal.Chronon.to_string
      (lo + (next () * width) + Random.State.int st width)
