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

(** Tuples per batch for producers that must pick a size. *)
let default_batch_size = 256

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

(** Wrap a cursor with per-algorithm observability (see {!Tango_obs}).

    Counters [xxl.<name>.opens] / [.tuples] / [.closes] are always live
    (a close is the first exhausted pull).  When a trace is being
    collected, [init] time and the summed pull time until exhaustion are
    additionally recorded in the [xxl.<name>.init_us] / [.drain_us] /
    [.tuples_per_open] histograms; with tracing off, the only overhead is
    one branch and one counter add per batch. *)
let observed (name : string) (c : t) : t =
  let pre = "xxl." ^ name in
  let c_opens = Tango_obs.Counter.make (pre ^ ".opens") in
  let c_tuples = Tango_obs.Counter.make (pre ^ ".tuples") in
  let c_closes = Tango_obs.Counter.make (pre ^ ".closes") in
  let h_init = Tango_obs.Histogram.make (pre ^ ".init_us") in
  let h_drain = Tango_obs.Histogram.make (pre ^ ".drain_us") in
  let h_out = Tango_obs.Histogram.make (pre ^ ".tuples_per_open") in
  let produced = ref 0 in
  let spent = ref 0.0 in
  let exhausted = ref false in
  let on_close () =
    if not !exhausted then begin
      exhausted := true;
      Tango_obs.Counter.incr c_closes
    end
  in
  let on_close_traced () =
    if not !exhausted then begin
      exhausted := true;
      Tango_obs.Counter.incr c_closes;
      Tango_obs.Histogram.observe h_drain !spent;
      Tango_obs.Histogram.observe h_out (float_of_int !produced)
    end
  in
  {
    schema = c.schema;
    init =
      (fun () ->
        Tango_obs.Counter.incr c_opens;
        produced := 0;
        spent := 0.0;
        exhausted := false;
        if Tango_obs.Trace.active () then begin
          let t0 = Tango_obs.mono_us () in
          c.init ();
          Tango_obs.Histogram.observe h_init (Tango_obs.mono_us () -. t0)
        end
        else c.init ());
    next_batch =
      (fun () ->
        if Tango_obs.Trace.active () then begin
          let t0 = Tango_obs.mono_us () in
          let r = c.next_batch () in
          spent := !spent +. (Tango_obs.mono_us () -. t0);
          (match r with
          | Some b ->
              produced := !produced + Array.length b;
              Tango_obs.Counter.add c_tuples (Array.length b)
          | None -> on_close_traced ());
          r
        end
        else begin
          let r = c.next_batch () in
          (match r with
          | Some b -> Tango_obs.Counter.add c_tuples (Array.length b)
          | None -> on_close ());
          r
        end);
  }
