(** The iterator (cursor) framework of the middleware execution engine,
    modeled on the XXL library the paper builds on: every algorithm is a
    result set with an [init] method and a pull method, enabling pipelined
    execution (paper Figure 2).

    The pull is batch-at-a-time: {!next_batch} returns a non-empty array
    of consecutive stream tuples, or [None] once the stream is exhausted.
    A consumer that reads one tuple at a time wraps its input in a
    {!reader}, which it owns. *)

open Tango_rel

type t

val default_batch_size : int
(** Tuples per batch for producers that must pick a size (256).
    [SORT^M], [TAGGR^M] and the merge joins fill every batch but the last
    to exactly this size and never exceed it: a 256-slot array is
    [Max_young_wosize] words, and a larger one is allocated on the major
    heap. *)

(** {1 Filling batches} *)

type out
(** A producer's output buffer: a per-operator array reused across pulls,
    grown on demand up to {!default_batch_size} slots, so a short pull
    allocates only the batch it hands on. *)

val out : unit -> out

val out_clear : out -> unit
(** Empty the buffer and release its slots; a producer calls it from its
    [init], so a pull cut short by an exception leaves nothing behind for
    the next run. *)

val out_full : out -> bool
(** Whether the buffer holds {!default_batch_size} tuples. *)

val out_add : out -> Tuple.t -> unit
(** Append a tuple; the buffer must not be full. *)

val out_take : out -> Tuple.t array option
(** The tuples added since the last take, as an exact-size batch; empties
    the buffer.  [None] when there are none, and then the slots are
    released too (the producer is exhausted). *)

val make :
  schema:Schema.t ->
  init:(unit -> unit) ->
  next_batch:(unit -> Tuple.t array option) ->
  t
(** The producer must never return an empty array, and returns [None] at
    exhaustion. *)

val schema : t -> Schema.t

val init : t -> unit
(** Prepare inner structures.  Some algorithms do real work here: sorting
    materializes runs; `TRANSFER^D` copies its whole input into the DBMS. *)

val next_batch : t -> Tuple.t array option

val of_relation : Relation.t -> t
(** Cursor over a materialized relation; [init] rewinds.  The remainder
    is handed out as one batch. *)

val to_relation : t -> Relation.t
(** [init] then drain. *)

val drain : t -> Tuple.t list
(** Drain without [init] (the caller already initialized). *)

val iter : (Tuple.t -> unit) -> t -> unit

(** {1 Tuple-at-a-time reading} *)

type reader
(** A consumer-side buffer over a cursor's batches. *)

val reader : t -> reader
(** A reader over the cursor's remaining stream; make a fresh one after
    each [init]. *)

val read : reader -> Tuple.t option
(** The next tuple, pulling the next batch when the buffer is spent. *)
