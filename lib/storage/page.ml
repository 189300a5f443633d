(** Fixed-size storage pages holding serialized tuples.

    Tuples are appended as length-prefixed byte strings.  Deserialization on
    read makes page access cost real CPU work, standing in for the I/O the
    paper's DBMS would perform. *)

open Tango_rel

(** Default page size, bytes. *)
let default_size = 8192

type t = {
  capacity : int;
  mutable data : Bytes.t;
  mutable used : int;  (** bytes written *)
  mutable slots : int array;  (** byte offset of each tuple *)
  mutable count : int;  (** number of tuples stored *)
}

let create ?(capacity = default_size) () =
  { capacity; data = Bytes.create capacity; used = 0; slots = Array.make 16 0; count = 0 }

let tuple_count p = p.count

let ensure_slots p =
  if p.count >= Array.length p.slots then begin
    let slots = Array.make (2 * Array.length p.slots) 0 in
    Array.blit p.slots 0 slots 0 p.count;
    p.slots <- slots
  end

(** [append p buf]: store the one serialized tuple held in [buf] (its
    whole contents, by {!Tuple.serialize}); returns [false] when the page
    is full.  A tuple larger than an entire page is rejected with
    [Invalid_argument]. *)
let append p buf =
  let len = Buffer.length buf in
  if len > p.capacity then
    invalid_arg "Page.append: tuple larger than page";
  if p.used + len > p.capacity then false
  else begin
    Buffer.blit buf 0 p.data p.used len;
    ensure_slots p;
    p.slots.(p.count) <- p.used;
    p.used <- p.used + len;
    p.count <- p.count + 1;
    true
  end

(* Pages are never compacted, so slot [i] starts where slot [i - 1]
   ends: one reader walks the whole page. *)
let reader p = Value.reader (Bytes.unsafe_to_string p.data) 0

(** [get p ~keep i]: deserialize the [i]-th tuple, building the fields
    [keep] selects. *)
let get p ~keep i =
  if i < 0 || i >= p.count then invalid_arg "Page.get: slot out of range";
  let r = reader p in
  r.Value.pos <- p.slots.(i);
  Tuple.read_cols keep r

(** Every tuple, in slot order. *)
let tuples p ~keep =
  let r = reader p in
  Array.init p.count (fun _ -> Tuple.read_cols keep r)
