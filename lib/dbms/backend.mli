(** The middleware⇄DBMS boundary — the JDBC stand-in — over one in-process
    {!Database}.

    Every tuple crossing this boundary pays real marshalling work: it is
    serialized into a wire buffer and parsed back on the other side.
    Fetches and bulk loads are batched by a row-prefetch setting (the paper
    notes Oracle JDBC's row prefetch affects `TRANSFER^M`), and each round
    trip additionally costs a configurable CPU spin standing in for network
    latency, so small prefetch values hurt, as they do over a real wire.

    Several backends — each holding a partition of the data — can sit
    behind one middleware session (see {!Topology}).  A backend's
    {e cost-factor handle} is its {!name}: the profile layer keys
    per-backend calibrated cost factors by it, so shards behind different
    (simulated) latencies calibrate independently.

    {b Meter.}  Each shipped batch is counted once, into the backend's own
    totals ({!roundtrips}, {!tuples_shipped}, {!bytes_shipped}); opened
    statements and bulk loads count into {!queries} and {!bulk_loads}.
    These fields are the only boundary meter: [/metrics] renders them
    per backend, and process-wide totals are their sum over a
    topology's backends. *)

open Tango_rel
open Tango_sql

type t

val default_row_prefetch : int
(** 10 — Oracle JDBC's historical default. *)

val default_roundtrip_spin : int

val in_process :
  ?name:string -> ?row_prefetch:int -> ?roundtrip_spin:int -> Database.t -> t
(** Connect to [db] as backend [name] (default ["db"]).  [row_prefetch] is
    clamped to at least 1, as by {!set_row_prefetch}. *)

val name : t -> string
(** The backend's name — also its cost-factor handle. *)

val database : t -> Database.t option
(** The database behind the boundary; always [Some]. *)

val set_row_prefetch : t -> int -> unit
(** Tuples shipped per round trip, clamped to at least 1. *)

val set_roundtrip_spin : t -> int -> unit
(** Spin iterations per round trip (the latency stand-in), at least 0. *)

(** {1 Operations} *)

(** A server-side cursor being drained by the middleware.  The statement
    is compiled when it opens and executed as the cursor advances: each
    fetch pulls the executor's batches (one page at a time for scans)
    until it has [row_prefetch] rows, so nothing is computed ahead of the
    consumer except what a pipeline breaker (sort, grouping, merge-join
    input) must materialize. *)
type cursor

val execute_query : t -> Ast.query -> cursor
(** Open a statement; raises {!Executor.Sql_error} if it does not
    compile. *)

val fetch_batch : cursor -> Tuple.t array option
(** The next batch of exactly [row_prefetch] rows (fewer only for the
    last), shipped over the wire in one round trip: serialized through
    the backend's reused wire buffer and parsed straight into the
    returned array.  [None] at exhaustion, never an empty array; the
    cursor releases the statement when it finds it exhausted. *)

val close_cursors : t -> unit
(** End every statement still open on this backend — one whose consumer
    stopped early — releasing what it holds.  The middleware calls this
    when a query ends, before dropping its temp tables. *)

val bulk_load : t -> table:string -> Schema.t -> Tuple.t Seq.t -> string
(** Direct-path bulk load — the SQL*Loader analogue used by `TRANSFER^D`:
    creates [table] (schema unqualified) and streams tuples to the server
    in prefetch-sized batches, one round trip each.  Returns the table
    name. *)

val drop_table : t -> string -> unit
(** Drop [table] if it exists. *)

val table_exists : t -> string -> bool

(** {1 Meter}

    Totals since {!in_process} or the last {!reset_meters}. *)

val roundtrips : t -> int
val tuples_shipped : t -> int

val bytes_shipped : t -> int
(** Wire bytes marshalled across the boundary. *)

val queries : t -> int
(** Statements opened by {!execute_query}. *)

val bulk_loads : t -> int
(** Tables loaded by {!bulk_load}. *)

val reset_meters : t -> unit
