(** The middleware⇄DBMS boundary — the JDBC stand-in.

    Every tuple crossing this boundary pays real marshalling work (wire
    serialization + parse).  Fetches are batched by a row-prefetch setting
    (the paper notes Oracle JDBC's row prefetch affects `TRANSFER^M`), and
    each round trip additionally costs a configurable CPU spin standing in
    for network latency. *)

open Tango_rel
open Tango_sql

type t

val default_row_prefetch : int
(** 10 — Oracle JDBC's historical default. *)

val default_roundtrip_spin : int

val connect : ?row_prefetch:int -> ?roundtrip_spin:int -> Database.t -> t
(** [row_prefetch] is clamped to at least 1, as by {!set_row_prefetch}. *)

val database : t -> Database.t
val set_row_prefetch : t -> int -> unit
val row_prefetch : t -> int
val set_roundtrip_spin : t -> int -> unit

val reset_counters : t -> unit
val roundtrips : t -> int
val tuples_shipped : t -> int

val bytes_shipped : t -> int
(** Wire bytes marshalled across the boundary since the last reset. *)

(** A server-side cursor being drained by the middleware; rows stream to
    the client in prefetch-sized batches as the cursor advances.  Each
    cursor accounts the round trips, tuples and wire bytes shipped on its
    behalf. *)
type cursor

val execute_query : t -> string -> cursor
val execute_query_ast : t -> Ast.query -> cursor
val cursor_schema : cursor -> Schema.t
val cursor_roundtrips : cursor -> int
val cursor_tuples : cursor -> int
val cursor_bytes : cursor -> int

val fetch_batch : cursor -> Tuple.t array option
(** The next prefetch batch, shipped over the wire in one round trip
    ([None] at exhaustion, never an empty array). *)

val fetch_all : cursor -> Relation.t

val execute_update : t -> string -> int

val bulk_load : t -> table:string -> Schema.t -> Tuple.t Seq.t -> string
(** Direct-path bulk load — the SQL*Loader analogue used by `TRANSFER^D`:
    creates [table] (schema unqualified) and streams tuples to the server
    in prefetch-sized batches.  Returns the table name. *)
