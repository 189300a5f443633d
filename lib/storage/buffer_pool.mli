(** A shared LRU buffer pool over (file, page) identities.

    A hit means the page was resident (no I/O charged); a miss charges a
    page read and may evict the least-recently-used page.  O(1) touch and
    evict via an intrusive doubly-linked recency list. *)

type key = { file_id : int; page_no : int }

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] on non-positive capacity. *)

val resident : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

val touch : t -> key -> bool
(** Record an access: [true] on a hit, [false] on a miss (the page becomes
    resident, evicting the LRU page if the pool was full). *)

val invalidate_file : t -> int -> unit
(** Drop every page of a file (table drop). *)
