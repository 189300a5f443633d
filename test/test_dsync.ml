(* Multi-domain stress for the Dsync-guarded hot path: OCaml 5 domains
   hammer the sharded counters, a histogram, the plan cache and the
   event log at once; every assertion is an exact conservation law
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

(* ---------------- Dsync primitives ---------------- *)

let test_sharded_counter () =
  let cells = Dsync.Sharded.create () in
  spawn_all (fun _ ->
      for _ = 1 to iters do
        Dsync.Sharded.add cells 1
      done);
  Alcotest.(check int)
    "every increment lands exactly once" (domains * iters)
    (Dsync.Sharded.value cells)

let test_protect_exclusion () =
  (* a plain int mutated only under the lock: the lock must make the
     read-modify-write atomic, or increments get lost *)
  let lock = Dsync.lock () in
  let n = ref 0 in
  spawn_all (fun _ ->
      for _ = 1 to iters do
        Dsync.protect lock (fun () -> n := !n + 1)
      done);
  Alcotest.(check int) "mutual exclusion" (domains * iters) !n

let test_protect_exception_safe () =
  let lock = Dsync.lock () in
  (try Dsync.protect lock (fun () -> failwith "boom") with Failure _ -> ());
  (* lock must have been released on the exception path *)
  Alcotest.(check int) "lock released after raise" 7
    (Dsync.protect lock (fun () -> 7))

(* ---------------- contention profiling ---------------- *)

let find_snapshot name =
  List.find_opt
    (fun (s : Dsync.Profile.snapshot) -> String.equal s.Dsync.Profile.lock_name name)
    (Dsync.Profile.snapshot ())

(* A lock only one domain ever touches: the try_lock fast path always
   wins, so the profile must show zero contended acquires and zero
   accumulated wait — an idle lock must not look busy. *)
let test_profile_uncontended () =
  let lock = Dsync.named_lock "test.uncontended" in
  for _ = 1 to 1_000 do
    Dsync.protect lock (fun () -> ())
  done;
  match find_snapshot "test.uncontended" with
  | None -> Alcotest.fail "no profile for test.uncontended"
  | Some s ->
      Alcotest.(check int) "every acquire counted" 1_000
        s.Dsync.Profile.acquires;
      Alcotest.(check int) "no contended acquires" 0 s.Dsync.Profile.contended;
      Alcotest.(check (float 0.0)) "no wait recorded" 0.0
        s.Dsync.Profile.wait_us;
      (match List.rev s.Dsync.Profile.hold_buckets with
      | (inf, total) :: _ ->
          Alcotest.(check bool) "+inf hold bound" true (inf = infinity);
          Alcotest.(check int) "hold histogram counts every acquire" 1_000
            total
      | [] -> Alcotest.fail "no hold buckets")

(* Contention, made deterministic (the test box may have one core, so
   short critical sections never overlap by luck): a holder takes the
   lock and keeps it until a waiter has announced it is about to
   acquire, plus a couple of milliseconds for the waiter's failed
   try_lock to land — so the waiter's acquire MUST contend.  Then
   domains hammer the same lock for the conservation bounds: acquires
   conserve exactly, and the accumulated wait is physically bounded —
   no lock can make a domain wait longer than the wall time, so
   Σ wait <= wall x domains. *)
let test_profile_contention_stress () =
  let lock = Dsync.named_lock "test.contended" in
  let holder_in = Atomic.make false in
  let waiter_trying = Atomic.make false in
  let t0 = Tango_obs.mono_us () in
  let holder =
    Domain.spawn (fun () ->
        Dsync.protect lock (fun () ->
            Atomic.set holder_in true;
            while not (Atomic.get waiter_trying) do
              Domain.cpu_relax ()
            done;
            (* hold through the waiter's try_lock attempt *)
            let u0 = Tango_obs.mono_us () in
            while Tango_obs.mono_us () -. u0 < 2_000.0 do
              Domain.cpu_relax ()
            done))
  in
  let waiter =
    Domain.spawn (fun () ->
        while not (Atomic.get holder_in) do
          Domain.cpu_relax ()
        done;
        Atomic.set waiter_trying true;
        Dsync.protect lock (fun () -> ()))
  in
  Domain.join holder;
  Domain.join waiter;
  let n = ref 0 in
  let iters = 2_000 in
  spawn_all (fun _ ->
      for _ = 1 to iters do
        Dsync.protect lock (fun () -> n := !n + 1)
      done);
  let wall_us = Tango_obs.mono_us () -. t0 in
  Alcotest.(check int) "mutual exclusion held" (domains * iters) !n;
  match find_snapshot "test.contended" with
  | None -> Alcotest.fail "no profile for test.contended"
  | Some s ->
      Alcotest.(check int) "every acquire counted"
        ((domains * iters) + 2)
        s.Dsync.Profile.acquires;
      Alcotest.(check bool) "some acquires contended" true
        (s.Dsync.Profile.contended > 0);
      Alcotest.(check bool) "wait accumulated on contention" true
        (s.Dsync.Profile.wait_us > 0.0);
      Alcotest.(check bool) "wait bounded by wall x domains" true
        (s.Dsync.Profile.wait_us <= wall_us *. float_of_int domains);
      (match List.rev s.Dsync.Profile.wait_buckets with
      | (inf, total) :: _ ->
          Alcotest.(check bool) "+inf wait bound" true (inf = infinity);
          Alcotest.(check int) "wait histogram counts contended acquires"
            s.Dsync.Profile.contended total
      | [] -> Alcotest.fail "no wait buckets")

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
  let bucket_total = Array.fold_left ( + ) 0 (Histogram.bucket_counts h) in
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
  Alcotest.run "tango_dsync"
    [
      ( "primitives",
        [
          Alcotest.test_case "sharded counter conservation" `Quick
            test_sharded_counter;
          Alcotest.test_case "protect mutual exclusion" `Quick
            test_protect_exclusion;
          Alcotest.test_case "protect releases on raise" `Quick
            test_protect_exception_safe;
        ] );
      ( "profile",
        [
          Alcotest.test_case "uncontended lock records zero waits" `Quick
            test_profile_uncontended;
          Alcotest.test_case "contention stress (4 domains)" `Quick
            test_profile_contention_stress;
        ] );
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
