(** GC and allocation attribution.

    GC counters are domain-local in OCaml 5, so a delta taken around a
    phase on one domain prices that phase's own allocation — a GC pause
    or an allocation storm becomes attributable to
    parse/optimize/translate/execute instead of being smeared into wall
    time.  Allocated bytes follow the classic identity:
    [(minor + major - promoted) words × word size], with the minor
    words read by [Gc.minor_words], which reads the live young-generation
    pointer and is exact.  On OCaml 5.1 the minor words of
    [Gc.quick_stat], of [Gc.counters] and hence of [Gc.allocated_bytes]
    only advance at minor collections, so a phase between two of them
    would price as (nearly) zero and the next phase to cross a collection
    would be charged up to a whole minor heap it did not allocate.

    The module also takes the process heap snapshot ([heap]) behind the
    [tango_gc_heap_*] gauges. *)

type delta = {
  alloc_bytes : int;
  minor_collections : int;
  major_collections : int;
  promoted_words : int;
}

let zero =
  { alloc_bytes = 0; minor_collections = 0; major_collections = 0; promoted_words = 0 }

let add a b =
  {
    alloc_bytes = a.alloc_bytes + b.alloc_bytes;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    promoted_words = a.promoted_words + b.promoted_words;
  }

type point = {
  pt_alloc_bytes : float;
  pt_minor : int;
  pt_major : int;
  pt_promoted : float;
}

(* Bytes allocated on this domain so far, exact between collections:
   [Gc.counters]' major and promoted words only change when something is
   allocated in, or promoted to, the major heap, which they count at
   once. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let point () =
  let s = Gc.quick_stat () in
  {
    pt_alloc_bytes = allocated ();
    pt_minor = s.Gc.minor_collections;
    pt_major = s.Gc.major_collections;
    pt_promoted = s.Gc.promoted_words;
  }

(* Clamp at zero: the float counters are monotone per domain, but a
   measure spanning a DLS-initialized domain switch (or float rounding
   at large magnitudes) must never yield a negative charge. *)
let delta_since p =
  let q = point () in
  {
    alloc_bytes = max 0 (int_of_float (q.pt_alloc_bytes -. p.pt_alloc_bytes));
    minor_collections = max 0 (q.pt_minor - p.pt_minor);
    major_collections = max 0 (q.pt_major - p.pt_major);
    promoted_words = max 0 (int_of_float (q.pt_promoted -. p.pt_promoted));
  }

let measure f =
  let p = point () in
  let r = f () in
  (r, delta_since p)

type mark = float

let mark () = allocated ()
let allocated_since m = max 0 (int_of_float (allocated () -. m))

(* --- process heap ----------------------------------------------------- *)

type heap = { heap_words : int; top_heap_words : int; compactions : int }

let heap () =
  let s = Gc.quick_stat () in
  {
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
    compactions = s.Gc.compactions;
  }
