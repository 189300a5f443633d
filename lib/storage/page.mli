(** Fixed-size storage pages holding serialized tuples.

    Tuples are appended as length-prefixed byte strings; deserialization on
    read makes page access cost real CPU work, standing in for the I/O the
    paper's DBMS would perform. *)

open Tango_rel

val default_size : int
(** 8192 bytes. *)

type t

val create : ?capacity:int -> unit -> t
val tuple_count : t -> int
val bytes_used : t -> int
val capacity : t -> int

val append : t -> Buffer.t -> bool
(** Store the one tuple serialized in the buffer (its whole contents, by
    {!Tuple.serialize}), copying its bytes into the page; [false] when the
    page is full.  Raises [Invalid_argument] for a tuple larger than an
    entire page. *)

val get : t -> keep:bool array -> int -> Tuple.t
(** Deserialize one slot, building only the fields [keep] selects (the
    others read as [Null], {!Tuple.read_cols}); raises [Invalid_argument]
    when out of range. *)

val tuples : t -> keep:bool array -> Tuple.t array
(** Deserialize every slot, in order, as {!get} does. *)
