(** TANGO observability: spans, counters and histograms for the whole
    middleware stack.

    - {!Counter}: monotonic event counts, registered by name in a
      process-wide registry; an increment is a single atomic add.
    - {!Histogram}: value distributions over fixed exponential buckets,
      plus count/sum/min/max; quantiles are read off the buckets.
    - {!Trace}: a hierarchical timed trace of one query.  Collection is
      off by default; with no active trace, {!Trace.span} costs one
      branch, so instrumented code pays near-zero overhead when
      observability is disabled.
    - {!Registry}: programmatic snapshots of every counter and histogram;
      [tango_monitor] renders them as Prometheus text.

    Counter and histogram creation is {e find-or-create} by name, so
    independent modules naming the same metric share one instance.

    Shared state: counters are one [int Atomic.t] each, histogram
    updates and compound reads take a per-instance [Mutex.t], the name
    registries are guarded, and trace collection state is domain-local
    (each domain collects its own trace). *)

module Clock = Clock
(** Monotonic vs wall clocks — see {!Clock}. *)

module Runtime = Runtime
(** GC/allocation attribution: per-phase deltas and heap snapshots —
    see {!Runtime}. *)

val now_us : unit -> float
(** Wall time in microseconds.  For {e timestamps} only (event-log
    [at_us]); durations use {!mono_us}. *)

val mono_us : unit -> float
(** Monotonic time in microseconds (arbitrary origin) — the clock every
    span and phase duration uses, immune to wall-clock steps. *)

(** Minimal JSON document model and serializer (no external deps). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialization; non-finite floats become [null]. *)

  val parse : string -> (t, string) result
  (** Minimal reader for the same document model (request bodies).
      Numbers with a fraction or exponent parse as [Float], others as
      [Int]; [\uXXXX] escapes decode below 0x80 and are kept verbatim
      otherwise. *)
end

module Counter : sig
  type t

  val make : string -> t
  (** Find-or-create the counter registered under this name. *)

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  type t

  val make : string -> t
  (** Find-or-create the histogram registered under this name. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  val max_value : t -> float
  val mean : t -> float

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0, 1]: the upper bound of the bucket
      holding the observation of rank [⌈q·count⌉], clamped to
      {!max_value}; 0 when empty. *)

  val reset : t -> unit
end

module Registry : sig
  type histogram_stats = {
    count : int;
    sum : float;
    min : float;
    max : float;
    mean : float;
    p50 : float;  (** bucket quantiles (see {!Histogram.quantile}) *)
    p95 : float;
    p99 : float;
    buckets : (float * int) list;
        (** cumulative [(upper bound, observations <= bound)] over the
            fixed bucket bounds ([1, 2, 4, ... 2^23] — with microsecond
            observations, 1µs to ~8.4s at factor 2 — shared by every
            histogram), closed by [(infinity, count)] *)
  }

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    histograms : (string * histogram_stats) list;  (** sorted by name *)
  }

  val snapshot : unit -> snapshot
  (** Point-in-time copy of every registered counter and histogram. *)

  val counter_value : snapshot -> string -> int
  (** 0 when the name is not present. *)

  val reset : unit -> unit
  (** Zero every registered counter and histogram. *)

  val pp : Format.formatter -> snapshot -> unit
end

module Trace : sig
  type value = Int of int | Float of float | Str of string

  type span = {
    name : string;
    mutable elapsed_us : float;
    mutable attrs : (string * value) list;  (** in insertion order *)
    mutable children : span list;  (** in execution order *)
  }

  val make :
    ?elapsed_us:float -> ?attrs:(string * value) list -> ?children:span list ->
    string -> span
  (** Build a finished span by hand (used to graft pre-measured trees,
      e.g. the executed operator tree). *)

  val active : unit -> bool
  (** Whether a trace is being collected right now. *)

  val start : unit -> unit
  (** Begin collecting a new trace (discards any previous state). *)

  val span : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a timed span nested under the innermost open
      span.  When no trace is active this is just the thunk call.
      Exception-safe: the span closes even if the thunk raises. *)

  val attr : string -> value -> unit
  (** Attach an attribute to the innermost open span (no-op otherwise). *)

  val graft : span -> unit
  (** Attach a finished span subtree under the innermost open span. *)

  val finish : unit -> span option
  (** Stop collecting and return the root span; [None] if no complete
      span was recorded.  Spans left open (by an escaping exception) are
      closed on the way out. *)

  val to_string : span -> string
  (** EXPLAIN-ANALYZE-style tree: one line per span with wall time and
      attributes. *)

  val find : string -> span -> span option
  (** First span with this name, depth-first. *)

  val fold : ('a -> span -> 'a) -> 'a -> span -> 'a
  val attr_int : span -> string -> int option
end
