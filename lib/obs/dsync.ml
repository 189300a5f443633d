(** Domain-safety primitives for the middleware's shared state.

    Two building blocks, matching the two shapes of shared state the
    lint pass ({!Tango_lint}) distinguishes:

    - {!protect}: an exception-safe critical section over a {!lock}.
      This is the {e only} sanctioned way to guard compound mutable
      state (hash tables, rings, queues, multi-field records): raw
      [Mutex.lock]/[Mutex.unlock] pairs leak the lock when the body
      raises and are flagged by the linter.
    - {!Sharded}: a domain-sharded monotonic integer cell for hot
      counters.  Increments go to a per-domain [Atomic] shard with no
      lock and no cross-domain contention in the common case; reads
      fold the shards.  This is exactly the additivity the Prometheus
      exporter already assumes of counters: the folded value is the sum
      of per-shard sums, and concurrent readers may observe a value
      between two increments but never a torn or decreasing one.

    Locks created with {!named_lock} additionally feed the contention
    profiler ({!Profile}): each [protect] records whether the acquire
    contended, how long the caller waited, and how long the section
    held the lock, into sharded per-name statistics.  Same-named locks
    aggregate (e.g. every histogram instance lock reports as one
    ["obs.histogram"] family).  Anonymous {!lock}s skip all of it — a
    single [match] on the fast path.

    The linter recognizes [Dsync.protect] (and [Mutex.protect]) as a
    guard: mutation sites dominated by one are considered domain-safe. *)

module Sharded = struct
  (* A power of two so the shard pick is a mask, not a division.  Eight
     shards cover typical accept-pool sizes; domains beyond that alias
     onto existing shards, which costs contention but never
     correctness. *)
  let width = 8

  type t = int Atomic.t array

  let create () = Array.init width (fun _ -> Atomic.make 0)

  let shard (t : t) = t.((Domain.self () :> int) land (width - 1))

  let add t n = ignore (Atomic.fetch_and_add (shard t) n)
  let incr t = add t 1

  (* Fold at read time.  Each shard read is atomic; the sum is a valid
     linearization point-in-time only once writers are quiescent, but it
     is always the sum of genuinely performed increments (monotone, no
     tearing) — the property counter conservation tests rely on. *)
  let value (t : t) = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t

  (* Not atomic across shards: concurrent adds during a reset may land
     before or after their shard is zeroed.  Reset is a test/bench
     convenience for quiescent registries, not a runtime operation. *)
  let reset (t : t) = Array.iter (fun c -> Atomic.set c 0) t
end

module Profile = struct
  (* Per-name lock statistics.  Everything a [protect] touches on the
     record path is a [Sharded] cell or an [Atomic] — the profiler must
     not itself become the contention it measures, so there is no lock
     anywhere on the per-acquire path.  The only mutex in this module
     guards the name -> stats table, taken once per [named_lock]. *)

  (* Same exponential ladder as [Tango_obs.Histogram]: 1µs .. ~8.4s,
     plus an overflow cell.  Duplicated rather than shared because
     [Tango_obs] re-exports this module and must stay downstream. *)
  let bucket_bounds = Array.init 24 (fun i -> float_of_int (1 lsl i))

  let bucket_index v =
    let n = Array.length bucket_bounds in
    let rec go i = if i >= n then n else if v <= bucket_bounds.(i) then i else go (i + 1) in
    go 0

  type stats = {
    name : string;
    acquires : Sharded.t;
    contended : Sharded.t;
    (* Totals in nanoseconds so sub-microsecond waits are not rounded
       away; snapshots convert back to µs. *)
    wait_total_ns : Sharded.t;
    hold_total_ns : Sharded.t;
    wait_buckets : Sharded.t array;
    hold_buckets : Sharded.t array;
  }

  let make_stats name =
    let cells () = Array.init (Array.length bucket_bounds + 1) (fun _ -> Sharded.create ()) in
    {
      name;
      acquires = Sharded.create ();
      contended = Sharded.create ();
      wait_total_ns = Sharded.create ();
      hold_total_ns = Sharded.create ();
      wait_buckets = cells ();
      hold_buckets = cells ();
    }

  let registry : (string, stats) Hashtbl.t = Hashtbl.create 17
  let registry_mutex = Mutex.create ()

  let stats_for name =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some s -> s
        | None ->
            let s = make_stats name in
            Hashtbl.replace registry name s;
            s)

  let ns_of_us us = int_of_float (us *. 1_000.0)

  let record s ~contended ~wait_us ~hold_us =
    Sharded.incr s.acquires;
    Sharded.add s.hold_total_ns (ns_of_us hold_us);
    Sharded.incr s.hold_buckets.(bucket_index hold_us);
    if contended then begin
      Sharded.incr s.contended;
      Sharded.add s.wait_total_ns (ns_of_us wait_us);
      Sharded.incr s.wait_buckets.(bucket_index wait_us)
    end

  type snapshot = {
    lock_name : string;
    acquires : int;
    contended : int;
    wait_us : float;
    hold_us : float;
    wait_buckets : (float * int) list;
    hold_buckets : (float * int) list;
  }

  (* Cumulative (Prometheus-shaped) buckets: each entry is
     [(upper_bound_us, count_of_observations <= bound)]; the last entry
     is [(infinity, total)]. *)
  let cumulative cells =
    let acc = ref 0 in
    Array.to_list cells
    |> List.mapi (fun i c ->
           acc := !acc + Sharded.value c;
           let le =
             if i < Array.length bucket_bounds then bucket_bounds.(i) else infinity
           in
           (le, !acc))

  let snapshot_of_stats s =
    {
      lock_name = s.name;
      acquires = Sharded.value s.acquires;
      contended = Sharded.value s.contended;
      wait_us = float_of_int (Sharded.value s.wait_total_ns) /. 1_000.0;
      hold_us = float_of_int (Sharded.value s.hold_total_ns) /. 1_000.0;
      wait_buckets = cumulative s.wait_buckets;
      hold_buckets = cumulative s.hold_buckets;
    }

  let snapshot () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun _ s acc -> snapshot_of_stats s :: acc) registry [])
    |> List.sort (fun a b -> compare a.lock_name b.lock_name)

  let reset () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.iter
          (fun _ (s : stats) ->
            Sharded.reset s.acquires;
            Sharded.reset s.contended;
            Sharded.reset s.wait_total_ns;
            Sharded.reset s.hold_total_ns;
            Array.iter Sharded.reset s.wait_buckets;
            Array.iter Sharded.reset s.hold_buckets)
          registry)
end

type lock = { mutex : Mutex.t; stats : Profile.stats option }

let lock () = { mutex = Mutex.create (); stats = None }
let named_lock name = { mutex = Mutex.create (); stats = Some (Profile.stats_for name) }

(* The guard implementation itself.  [Mutex.protect] covers anonymous
   locks (exception-safe on OCaml >= 5.1).  The profiled path needs the
   raw operations the linter normally forbids:
   [try_lock] distinguishes a contended acquire from a free one without
   paying two clock reads on the uncontended path, and the explicit
   [lock]/[unlock] pair brackets the hold-time measurement.  Release is
   still guaranteed on every path via [Fun.protect]. *)
let protect l f =
  match l.stats with
  | None -> Mutex.protect l.mutex f
  | Some s ->
      let contended, wait_us =
        if Mutex.try_lock l.mutex then (false, 0.0)
        else begin
          let t0 = Clock.mono_us () in
          Mutex.lock l.mutex;
          (true, Clock.mono_us () -. t0)
        end
      in
      let h0 = Clock.mono_us () in
      Fun.protect
        ~finally:(fun () ->
          let hold_us = Clock.mono_us () -. h0 in
          Mutex.unlock l.mutex;
          (* Record after release so bookkeeping never extends the
             critical section other domains are waiting on. *)
          Profile.record s ~contended ~wait_us ~hold_us)
        f
[@@tango.unguarded
  "the guard implementation: try_lock/lock/unlock bracket the wait- and \
   hold-time measurements, with release guaranteed on all paths by \
   Fun.protect (and by Mutex.protect on the anonymous-lock branch)"]
