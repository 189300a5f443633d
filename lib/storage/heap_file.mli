(** Heap files: unordered collections of pages holding one table's tuples.

    Page accesses go through the file's {!Io_stats.t} (and optionally a
    shared {!Buffer_pool.t}: only misses pay a page read).  Record ids are
    (page, slot) pairs; indexes store them. *)

open Tango_rel

type rid = { page : int; slot : int }

type t

val create :
  ?page_capacity:int -> ?pool:Buffer_pool.t -> stats:Io_stats.t -> Schema.t -> t

val schema : t -> Schema.t

val block_count : t -> int
val tuple_count : t -> int
val avg_tuple_size : t -> float

val append : t -> Tuple.t -> rid
(** Append, allocating a fresh page when the last one is full.  The tuple
    is serialized once, into a buffer the file reuses. *)

val read_page : t -> int -> Page.t
(** Charges one page read (unless resident in the pool). *)

val fetch : t -> keep:bool array -> rid -> Tuple.t
(** Fetch a single tuple (one page read).  Only the fields [keep] selects
    are built; the others read as [Null] ({!Tuple.read_cols}). *)

val scan_pages : t -> keep:bool array -> unit -> Tuple.t array option
(** [scan_pages f ~keep] starts a full scan pulled one page at a time:
    each pull charges one page and returns its tuples (never an empty
    array), built as in {!fetch}; [None] after the last page. *)

val scan : t -> Tuple.t Seq.t
(** Full scan; each page charged once, each tuple deserialized. *)

val invalidate : t -> unit
(** Drop this file's pages from the shared buffer pool (table drop). *)

val to_relation : t -> Relation.t
