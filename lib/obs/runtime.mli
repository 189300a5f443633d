(** GC and allocation attribution: per-phase deltas and process heap
    snapshots.

    GC counters are domain-local in OCaml 5, so a {!measure} around a
    pipeline phase charges that phase with its own allocation and
    collection counts.  Allocated bytes come from [Gc.minor_words] plus
    the major and promoted words of [Gc.counters] (exact even between
    collections: [Gc.minor_words] reads the young pointer, which the
    minor words of [Gc.counters] and [Gc.allocated_bytes] do not on
    OCaml 5.1); collection and promotion counts from [Gc.quick_stat]. *)

type delta = {
  alloc_bytes : int;  (** (minor + major - promoted) words × word size *)
  minor_collections : int;
  major_collections : int;
  promoted_words : int;
}

val zero : delta
val add : delta -> delta -> delta

type point
(** An allocation-counter reading (allocated bytes plus a
    [Gc.quick_stat] projection). *)

val point : unit -> point
val delta_since : point -> delta
(** Counters accumulated on this domain since [point] was taken.
    Components clamp at zero. *)

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] is [f ()] paired with the allocation/GC delta it
    incurred on the calling domain.  Not exception-safe: if [f] raises,
    take {!point} / {!delta_since} around the call instead. *)

type mark
(** An allocation-only reading: allocated bytes without the
    [Gc.quick_stat] of {!point}, cheap enough for a per-batch probe. *)

val mark : unit -> mark

val allocated_since : mark -> int
(** Bytes allocated on this domain since the mark, as in
    {!delta.alloc_bytes} (clamped at zero). *)

(** {1 Process heap} *)

type heap = { heap_words : int; top_heap_words : int; compactions : int }

val heap : unit -> heap
