(** The iterator (cursor) framework of the middleware execution engine.

    Modeled on the XXL library the paper builds on: every algorithm is a
    result set with an [init] method and a pull method, enabling pipelined
    execution (paper Figure 2).  [init] prepares inner structures — and
    for some algorithms does real work up front (sorting materializes
    runs; the `TRANSFER^D` algorithm copies its whole input into the DBMS).

    The pull, [next_batch], returns an array of tuples per call, which
    amortizes the closure chain of a pipeline over many tuples.  A batch
    is never empty; [None] marks exhaustion.  Consumers that read one
    tuple at a time own a {!reader} over their input. *)

open Tango_rel

type t = {
  schema : Schema.t;
  init : unit -> unit;
  next_batch : unit -> Tuple.t array option;
}

(** Tuples per batch for producers that must pick a size.  256 slots are
    256 words, [Max_young_wosize]: the largest array the minor heap
    allocates. *)
let default_batch_size = 256

(* A producer's output buffer: [slots] is reused across pulls and grows
   (16, 32, ... up to [default_batch_size]) only as far as a pull's
   output needs; [take] copies out exactly the [fill] tuples added. *)
type out = { mutable slots : Tuple.t array; mutable fill : int }

let out () = { slots = [||]; fill = 0 }

let out_clear o =
  o.slots <- [||];
  o.fill <- 0

let out_full o = o.fill = default_batch_size

let out_add o t =
  if o.fill = Array.length o.slots then begin
    let bigger = Array.make (min default_batch_size (max 16 (2 * o.fill))) t in
    Array.blit o.slots 0 bigger 0 o.fill;
    o.slots <- bigger
  end;
  o.slots.(o.fill) <- t;
  o.fill <- o.fill + 1

let out_take o =
  if o.fill = 0 then begin
    (* the producer is exhausted: keep none of its last batch reachable *)
    o.slots <- [||];
    None
  end
  else begin
    let b = Array.sub o.slots 0 o.fill in
    o.fill <- 0;
    Some b
  end

let make ~schema ~init ~next_batch = { schema; init; next_batch }
let schema c = c.schema
let init c = c.init ()
let next_batch c = c.next_batch ()

(** Cursor over a materialized relation; the remaining tuples are handed
    out in one array. *)
let of_relation (r : Relation.t) : t =
  let ts = Relation.tuples r in
  let pos = ref 0 in
  make ~schema:(Relation.schema r)
    ~init:(fun () -> pos := 0)
    ~next_batch:(fun () ->
      let len = Array.length ts in
      if !pos >= len then None
      else begin
        let b = Array.sub ts !pos (len - !pos) in
        pos := len;
        Some b
      end)

(* Drain every remaining batch, in order. *)
let drain_batches (c : t) : Tuple.t array list =
  let rec go acc =
    match c.next_batch () with None -> List.rev acc | Some b -> go (b :: acc)
  in
  go []

(** [init] then drain into a relation. *)
let to_relation (c : t) : Relation.t =
  c.init ();
  Relation.make c.schema (Array.concat (drain_batches c))

(** Drain without init (when the caller already initialized). *)
let drain (c : t) : Tuple.t list =
  List.concat_map Array.to_list (drain_batches c)

let iter f (c : t) =
  c.init ();
  let rec go () =
    match c.next_batch () with
    | None -> ()
    | Some b ->
        Array.iter f b;
        go ()
  in
  go ()

(* A consumer-side buffer: the current batch and the position of the next
   unread tuple in it. *)
type reader = { src : t; mutable buf : Tuple.t array; mutable pos : int }

let reader src = { src; buf = [||]; pos = 0 }

let rec read r =
  if r.pos < Array.length r.buf then begin
    let t = r.buf.(r.pos) in
    r.pos <- r.pos + 1;
    Some t
  end
  else
    match r.src.next_batch () with
    | None -> None
    | Some b ->
        r.buf <- b;
        r.pos <- 0;
        read r
