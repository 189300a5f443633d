(** The backend abstraction: everything the middleware needs from a DBMS
    under the temporal layer, factored out of {!Client} so that several
    backends — each holding a partition of the data — can sit behind one
    middleware session (see {!Topology}).

    Implementations provide the module type {!S}; {!make} packs an
    implementation together with an open connection into the first-class
    handle {!t} the rest of the system works with.  The handle meters every
    boundary crossing into per-backend [backend.<name>.*] counters of
    {!Tango_obs} (visible on [/metrics]), next to the process-wide
    [client.*] totals.

    A backend's {e cost-factor handle} is its {!name}: the profile layer
    keys per-backend calibrated cost factors by it, so shards behind
    different (simulated) latencies calibrate independently. *)

open Tango_rel
open Tango_sql

(** What a backend implementation must provide.  [conn] is an open
    connection; [cursor] a server-side result being drained. *)
module type S = sig
  type conn
  type cursor

  val kind : string
  (** Implementation family name (e.g. ["in_process"]). *)

  val execute_query : conn -> Ast.query -> cursor
  val cursor_schema : cursor -> Schema.t
  val fetch_batch : cursor -> Tuple.t array option
  (** The only way to drain a cursor: [None] at exhaustion, never an
      empty array. *)

  val execute_update : conn -> string -> int

  val bulk_load : conn -> table:string -> Schema.t -> Tuple.t Seq.t -> string
  (** Direct-path load into a fresh table; returns the table name. *)

  val drop_table : conn -> string -> unit
  val table_exists : conn -> string -> bool
  val table_schema : conn -> string -> Schema.t

  val analyze :
    conn -> ?histograms:[ `All | `Cols of string list | `None ] -> string -> unit

  val schema_generation : conn -> int
  (** Monotone DDL/ANALYZE generation (see {!Database.schema_generation}). *)

  val counters : conn -> int * int * int
  (** [(roundtrips, tuples_shipped, bytes_shipped)] since connect — the
      meter {!make} diffs around each operation. *)

  val close : conn -> unit
end

type t
(** A packed backend: an implementation of {!S} plus its connection. *)

type cursor
(** A metered cursor on some backend. *)

val make :
  (module S with type conn = 'c) -> 'c -> name:string -> ?client:Client.t ->
  unit -> t
(** Pack connection [conn] of implementation [m] as backend [name].
    [client] is the in-process escape hatch (see {!client}). *)

val in_process :
  ?name:string -> ?row_prefetch:int -> ?roundtrip_spin:int -> Database.t -> t
(** The first (and reference) implementation: an in-process
    {!Tango_dbms} reached through the marshalling {!Client} boundary.
    Default [name] is ["db"]. *)

val of_client : ?name:string -> Client.t -> t
(** Wrap an already-open in-process client. *)

val name : t -> string
(** The backend's name — also its cost-factor handle. *)

val kind : t -> string

val client : t -> Client.t option
(** The underlying in-process client, when the backend is in-process.
    Calibration ({!Tango_cost}-level microbenchmarks) and the workload
    loaders need the raw boundary; remote implementations return [None]. *)

val database : t -> Database.t option
(** The in-process database behind {!client}, when available. *)

(** {1 Operations} — each is metered into the backend's counters. *)

val execute_query : t -> Ast.query -> cursor
val cursor_schema : cursor -> Schema.t
val fetch_batch : cursor -> Tuple.t array option
val execute_update : t -> string -> int
val bulk_load : t -> table:string -> Schema.t -> Tuple.t Seq.t -> string
val drop_table : t -> string -> unit
val table_exists : t -> string -> bool
val table_schema : t -> string -> Schema.t

val analyze :
  t -> ?histograms:[ `All | `Cols of string list | `None ] -> string -> unit

val schema_generation : t -> int
val close : t -> unit

val set_row_prefetch : t -> int -> unit
(** In-process only; a no-op on other implementations. *)

val set_roundtrip_spin : t -> int -> unit
(** In-process only; a no-op on other implementations. *)

(** {1 Per-backend meters}

    Totals since {!make}; also mirrored to the process-wide
    [backend.<name>.roundtrips]/[...tuples_shipped]/[...bytes_shipped]
    counters of {!Tango_obs}. *)

val roundtrips : t -> int
val tuples_shipped : t -> int
val bytes_shipped : t -> int
val reset_meters : t -> unit
