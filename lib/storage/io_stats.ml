(** I/O accounting for the simulated storage layer.

    Every component that touches pages increments these counters; experiments
    and the cost calibrator read them to reason about work performed (the
    substitute for Oracle's block-read statistics).

    Page reads are also mirrored into the process-wide {!Tango_obs}
    registry as [storage.page_reads], so traces and metric exports see
    them without holding a reference to any particular [t]. *)

type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable tuples_read : int;
  mutable tuples_written : int;
  mutable index_lookups : int;
}

(* process-wide mirror (see Tango_obs: find-or-create by name) *)
let c_page_reads = Tango_obs.Counter.make "storage.page_reads"

let record_page_read s =
  s.page_reads <- s.page_reads + 1;
  Tango_obs.Counter.incr c_page_reads

let record_page_write s = s.page_writes <- s.page_writes + 1
let record_tuples_read s n = s.tuples_read <- s.tuples_read + n
let record_tuple_written s = s.tuples_written <- s.tuples_written + 1
let record_index_lookup s = s.index_lookups <- s.index_lookups + 1

let create () =
  {
    page_reads = 0;
    page_writes = 0;
    tuples_read = 0;
    tuples_written = 0;
    index_lookups = 0;
  }

let copy s =
  {
    page_reads = s.page_reads;
    page_writes = s.page_writes;
    tuples_read = s.tuples_read;
    tuples_written = s.tuples_written;
    index_lookups = s.index_lookups;
  }

(** [diff later earlier]: counter deltas between two snapshots. *)
let diff a b =
  {
    page_reads = a.page_reads - b.page_reads;
    page_writes = a.page_writes - b.page_writes;
    tuples_read = a.tuples_read - b.tuples_read;
    tuples_written = a.tuples_written - b.tuples_written;
    index_lookups = a.index_lookups - b.index_lookups;
  }
