(** Ordered secondary indexes over a heap-file attribute — the behavioural
    stand-in for a B-tree: point and range lookups in O(log n), one page
    read per fetched tuple.  An index may be {e clustered}; the catalog
    records this, as the paper's statistics require. *)

open Tango_rel

type t

val build :
  ?clustered:bool -> stats:Io_stats.t -> Heap_file.t -> string -> t
(** Build an index on the named attribute by scanning the file. *)

val attr : t -> string
val clustered : t -> bool
val entry_count : t -> int

val lookup : t -> Value.t -> Heap_file.rid array
(** Rids with key equal to the argument, in key order. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> Heap_file.rid array
(** Rids with [lo <= key <= hi], in key order; omitted bounds are open. *)

val range_count : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int
(** Count of keys in the closed range without fetching tuples. *)
