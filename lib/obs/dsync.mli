(** Domain-safety primitives: exception-safe critical sections,
    domain-sharded counters, and a lock-contention profiler.

    The middleware's shared state (plan cache, metric registry, event
    log, SLO window, profile stores) is guarded with these primitives;
    the static analyzer ({!Tango_lint}) recognizes {!protect} (and
    [Mutex.protect]) as the guard that makes a mutation site
    domain-safe, and treats raw [Mutex.lock]/[Mutex.unlock] pairs as
    findings because they are not exception-safe.

    Locks created with {!named_lock} feed the contention profiler:
    every {!protect} on one records acquire counts, contended-acquire
    counts, and wait/hold-time histograms under the lock's name
    (same-named locks aggregate into one family).  Anonymous {!lock}s
    cost one [match] extra over a bare [Mutex.protect]. *)

type lock

val lock : unit -> lock
(** A fresh anonymous mutex.  Not profiled. *)

val named_lock : string -> lock
(** A fresh mutex whose [protect] sections are recorded by {!Profile}
    under [name].  Locks sharing a name share one statistics family —
    use for per-instance locks of the same kind (e.g. every histogram's
    instance lock registers as ["obs.histogram"]). *)

val protect : lock -> (unit -> 'a) -> 'a
(** [protect l f] runs [f ()] with [l] held.  Exception-safe: the lock
    is released whether [f] returns or raises ([Mutex.protect]
    semantics).  On a {!named_lock} with profiling enabled it
    additionally records: an uncontended acquire (the no-wait
    [Mutex.try_lock] fast path) contributes {e zero} wait observations;
    a contended one records the measured wait; every acquire records
    the hold time.  Bookkeeping happens after release, so the profiler
    never lengthens the critical section it measures. *)

(** Domain-sharded monotonic integer cells for hot counters: increments
    touch a per-domain [Atomic] shard; {!Sharded.value} folds the
    shards.  Additive (the fold is the sum of genuine increments, never
    torn), which is what snapshot diffing and the Prometheus exporter
    assume of counters. *)
module Sharded : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Sum over shards.  Monotone under concurrent increments; exact
      once writers are quiescent. *)

  val reset : t -> unit
  (** Zero every shard.  Not atomic with respect to concurrent adds;
      intended for quiescent registries (tests, bench setup). *)
end

(** Contention statistics for {!named_lock}s.  All per-acquire
    bookkeeping is sharded/atomic — the profiler holds no lock on the
    record path, so it cannot become the contention it measures. *)
module Profile : sig
  type snapshot = {
    lock_name : string;
    acquires : int;  (** total [protect] sections completed *)
    contended : int;  (** acquires that had to wait *)
    wait_us : float;  (** total time spent waiting, µs *)
    hold_us : float;  (** total time the lock was held, µs *)
    wait_buckets : (float * int) list;
        (** cumulative histogram of per-acquire wait times:
            [(upper_bound_us, count <= bound)], last entry
            [(infinity, contended)] *)
    hold_buckets : (float * int) list;
        (** cumulative histogram of hold times; last entry
            [(infinity, acquires)] *)
  }

  val snapshot : unit -> snapshot list
  (** All registered lock families, sorted by name. *)

  val reset : unit -> unit
  (** Zero all statistics (names stay registered).  For tests/bench. *)
end
