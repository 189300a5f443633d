(** Heap files: unordered collections of pages holding one table's tuples.

    Every page access goes through the file's {!Io_stats.t} so experiments
    can observe block-level work.  Record ids ([rid]) are (page, slot)
    pairs; indexes store them. *)

open Tango_rel

type rid = { page : int; slot : int }

type t = {
  id : int;  (** distinguishes files in a shared buffer pool *)
  schema : Schema.t;
  page_capacity : int;
  mutable pages : Page.t array;
  mutable page_count : int;
  mutable tuple_count : int;
  mutable byte_count : int;
  stats : Io_stats.t;
  pool : Buffer_pool.t option;
  all_columns : bool array;  (** the keep-mask that decodes every field *)
  scratch : Buffer.t;  (** the tuple being appended, serialized once *)
}

let next_file_id = ref 0

let create ?(page_capacity = Page.default_size) ?pool ~stats schema =
  incr next_file_id;
  {
    id = !next_file_id;
    schema;
    page_capacity;
    pages = [||];
    page_count = 0;
    tuple_count = 0;
    byte_count = 0;
    stats;
    pool;
    all_columns = Array.make (Schema.arity schema) true;
    scratch = Buffer.create 256;
  }

let schema f = f.schema
let block_count f = f.page_count
let tuple_count f = f.tuple_count

let avg_tuple_size f =
  if f.tuple_count = 0 then 0.0
  else float_of_int f.byte_count /. float_of_int f.tuple_count

let grow f =
  let cap = max 4 (2 * Array.length f.pages) in
  if f.page_count >= Array.length f.pages then begin
    let pages = Array.make cap (Page.create ~capacity:0 ()) in
    Array.blit f.pages 0 pages 0 f.page_count;
    f.pages <- pages
  end

let add_page f =
  grow f;
  let p = Page.create ~capacity:f.page_capacity () in
  f.pages.(f.page_count) <- p;
  f.page_count <- f.page_count + 1;
  Io_stats.record_page_write f.stats;
  p

(** Append a tuple, allocating a fresh page when the last one is full.
    The tuple is serialized once, into the file's scratch buffer, and its
    bytes copied into whichever page takes it. *)
let append f (t : Tuple.t) : rid =
  Buffer.clear f.scratch;
  Tuple.serialize f.scratch t;
  let page =
    if f.page_count = 0 then add_page f else f.pages.(f.page_count - 1)
  in
  let page = if Page.append page f.scratch then page
    else begin
      let p = add_page f in
      if not (Page.append p f.scratch) then
        invalid_arg "Heap_file.append: tuple larger than page";
      p
    end
  in
  f.tuple_count <- f.tuple_count + 1;
  f.byte_count <- f.byte_count + Tuple.byte_size t;
  Io_stats.record_tuple_written f.stats;
  { page = f.page_count - 1; slot = Page.tuple_count page - 1 }

let read_page f i =
  if i < 0 || i >= f.page_count then invalid_arg "Heap_file.read_page";
  (* With a buffer pool, only misses pay a page read; a resident page costs
     nothing at the I/O level (its tuples are still deserialized). *)
  (match f.pool with
  | Some pool ->
      if not (Buffer_pool.touch pool { Buffer_pool.file_id = f.id; page_no = i })
      then Io_stats.record_page_read f.stats
  | None -> Io_stats.record_page_read f.stats);
  f.pages.(i)

(** Fetch a single tuple by rid (pays one page read), building the fields
    [keep] selects. *)
let fetch f ~keep (r : rid) =
  let p = read_page f r.page in
  Io_stats.record_tuples_read f.stats 1;
  Page.get p ~keep r.slot

(** Full scan, one page per pull: each page is charged once and its
    tuples deserialized (the fields [keep] selects); [None] after the last
    page.  The page count is read per pull, so pages appended mid-scan are
    seen. *)
let scan_pages f ~keep : unit -> Tuple.t array option =
  let next = ref 0 in
  let rec pull () =
    if !next >= f.page_count then None
    else begin
      let p = read_page f !next in
      incr next;
      Io_stats.record_tuples_read f.stats (Page.tuple_count p);
      match Page.tuples p ~keep with [||] -> pull () | ts -> Some ts
    end
  in
  pull

let scan f : Tuple.t Seq.t =
  Seq.concat_map Array.to_seq
    (Seq.of_dispenser (scan_pages f ~keep:f.all_columns))

(** Drop this file's pages from the shared buffer pool (table drop). *)
let invalidate f =
  match f.pool with
  | Some pool -> Buffer_pool.invalidate_file pool f.id
  | None -> ()

let to_relation f =
  Relation.make f.schema (Array.of_seq (scan f))
