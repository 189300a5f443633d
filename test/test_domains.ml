(* Multi-domain stress for the lock- and atomic-guarded shared state:
   OCaml 5 domains hammer the counters, a histogram, the plan cache and
   the event log at once; every assertion is an exact conservation law
   (nothing lost, nothing double-counted), and a concurrent reader
   checks that snapshots are internally consistent (never torn). *)

open Tango_obs
module Plan_cache = Tango_cache.Plan_cache
module Event_log = Tango_monitor.Event_log
module Middleware = Tango_core.Middleware

let domains = 4
let iters = 5_000

let spawn_all f =
  let ds = List.init domains (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

(* ---------------- counters and histograms ---------------- *)

let test_counter_conservation () =
  let c = Counter.make "dsync.stress_counter" in
  Counter.reset c;
  spawn_all (fun _ ->
      for _ = 1 to iters do
        Counter.incr c
      done);
  Alcotest.(check int) "counter conserves increments" (domains * iters)
    (Counter.value c)

let histogram_stats_consistent (name, (h : Registry.histogram_stats)) =
  (* cumulative buckets close with (infinity, count): a torn snapshot
     (count bumped between the bucket fold and the count read) breaks
     this identity *)
  (match List.rev h.Registry.buckets with
  | (inf_bound, inf_count) :: _ ->
      Alcotest.(check bool)
        (name ^ ": +inf bucket bound") true
        (inf_bound = infinity);
      Alcotest.(check int)
        (name ^ ": +inf bucket equals count")
        h.Registry.count inf_count
  | [] -> Alcotest.fail (name ^ ": no buckets"));
  (* cumulative counts must be monotone *)
  ignore
    (List.fold_left
       (fun prev (_, c) ->
         Alcotest.(check bool) (name ^ ": cumulative monotone") true (c >= prev);
         c)
       0 h.Registry.buckets);
  if h.Registry.count > 0 then begin
    let expected_mean = h.Registry.sum /. float_of_int h.Registry.count in
    Alcotest.(check (float 1e-6)) (name ^ ": mean = sum/count") expected_mean
      h.Registry.mean
  end

let test_histogram_conservation_and_snapshots () =
  let h = Histogram.make "dsync.stress_hist" in
  Histogram.reset h;
  let stop = Atomic.make false in
  (* a reader domain snapshotting while writers observe: every snapshot
     must be internally consistent, whatever instant it lands on *)
  let reader =
    Domain.spawn (fun () ->
        let snaps = ref 0 in
        while not (Atomic.get stop) do
          let s = Registry.snapshot () in
          (match
             List.assoc_opt "dsync.stress_hist" s.Registry.histograms
           with
          | Some hs ->
              incr snaps;
              histogram_stats_consistent ("dsync.stress_hist", hs)
          | None -> ());
          Domain.cpu_relax ()
        done;
        !snaps)
  in
  spawn_all (fun d ->
      for i = 1 to iters do
        Histogram.observe h (float_of_int (((d * iters) + i) mod 1000))
      done);
  Atomic.set stop true;
  let snaps = Domain.join reader in
  Alcotest.(check bool) "reader actually snapshotted" true (snaps > 0);
  Alcotest.(check int) "histogram count conserves observations"
    (domains * iters) (Histogram.count h);
  let expected_sum =
    let s = ref 0.0 in
    for d = 0 to domains - 1 do
      for i = 1 to iters do
        s := !s +. float_of_int (((d * iters) + i) mod 1000)
      done
    done;
    !s
  in
  Alcotest.(check (float 1e-3)) "histogram sum conserves observations"
    expected_sum (Histogram.sum h);
  (* every observation is below the last finite bound (2^23), so its
     cumulative count is the sum of all bucket counts *)
  let bucket_total =
    match
      List.rev
        (List.assoc "dsync.stress_hist" (Registry.snapshot ()).Registry.histograms)
          .Registry.buckets
    with
    | _inf :: (_, below_last) :: _ -> below_last
    | _ -> Alcotest.fail "no finite bucket"
  in
  Alcotest.(check int) "bucket counts sum to count" (domains * iters)
    bucket_total

(* ---------------- plan cache ---------------- *)

let test_plan_cache_stress () =
  let cache = Plan_cache.create ~capacity:8 () in
  let finds = domains * iters in
  spawn_all (fun d ->
      for i = 1 to iters do
        (* 16 distinct queries over capacity 8: constant eviction churn *)
        let sql = Printf.sprintf "SELECT %d" (((d * iters) + i) mod 16) in
        match Plan_cache.find cache ~sql with
        | Some _ -> ()
        | None -> Plan_cache.add cache ~sql (d, i)
      done);
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "hits + misses = finds" finds
    (s.Plan_cache.hits + s.Plan_cache.misses);
  Alcotest.(check bool) "length bounded by capacity" true
    (Plan_cache.length cache <= Plan_cache.capacity cache);
  Alcotest.(check bool) "evictions happened under churn" true
    (s.Plan_cache.evictions > 0)

(* ---------------- event log ---------------- *)

let event () : Middleware.query_event =
  {
    Middleware.kind = "query";
    sql = Some "SELECT 1";
    started_us = 0.0;
    elapsed_us = 100.0;
    run = None;
    error = None;
    gc = Tango_obs.Runtime.zero;
  }

let test_event_log_stress () =
  let log = Event_log.create ~capacity:64 () in
  spawn_all (fun _ ->
      for _ = 1 to iters do
        Event_log.observe log (event ())
      done);
  Alcotest.(check int) "every offer counted once" (domains * iters)
    (Event_log.seen log);
  Alcotest.(check int) "sample_every=1 keeps everything" (domains * iters)
    (Event_log.kept log);
  let recent = Event_log.recent log in
  Alcotest.(check int) "ring full" 64 (List.length recent);
  (* admission assigns each kept record a unique seq under the lock *)
  let seqs = List.map (fun r -> r.Event_log.seq) recent in
  Alcotest.(check int) "no duplicated seq in the ring"
    (List.length seqs)
    (List.length (List.sort_uniq compare seqs));
  List.iter
    (fun s ->
      Alcotest.(check bool) "seq within range" true
        (s >= 0 && s < domains * iters))
    seqs

let () =
  Alcotest.run "tango_domains"
    [
      ( "stress",
        [
          Alcotest.test_case "counter conservation (4 domains)" `Quick
            test_counter_conservation;
          Alcotest.test_case "histogram conservation, no torn snapshots"
            `Quick test_histogram_conservation_and_snapshots;
          Alcotest.test_case "plan cache LRU under churn" `Quick
            test_plan_cache_stress;
          Alcotest.test_case "event log admission" `Quick
            test_event_log_stress;
        ] );
    ]
