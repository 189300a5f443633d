(** I/O accounting for the simulated storage layer — the substitute for
    Oracle's block-read statistics.  Every component that touches pages
    increments these counters via the [record_*] functions;
    [record_page_read] also counts into the process-wide {!Tango_obs}
    registry as [storage.page_reads]. *)

type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable tuples_read : int;
  mutable tuples_written : int;
  mutable index_lookups : int;
}

val create : unit -> t

val record_page_read : t -> unit
val record_page_write : t -> unit
val record_tuples_read : t -> int -> unit
val record_tuple_written : t -> unit
val record_index_lookup : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier]: counter deltas between two snapshots. *)
