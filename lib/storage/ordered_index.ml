(** Ordered secondary indexes over a heap-file attribute.

    Implemented as a sorted (key, rid) array with binary search — the
    behavioural stand-in for a B-tree: point and range lookups cost
    O(log n) plus one page read per fetched tuple (or none, for index-only
    range counting).  An index may be {e clustered}, meaning the heap file
    is stored in index order; the DBMS planner uses this for sort
    avoidance, as Oracle would (the paper's catalog records "clusterings
    for indexes"). *)

open Tango_rel

type entry = { key : Value.t; rid : Heap_file.rid }

type t = {
  attr : string;
  clustered : bool;
  entries : entry array;
  stats : Io_stats.t;
}

(** Build an index on [attr] by scanning the file. *)
let build ?(clustered = false) ~stats file attr =
  let schema = Heap_file.schema file in
  let attr_index = Schema.index schema attr in
  let keep = Array.init (Schema.arity schema) (fun i -> i = attr_index) in
  let entries = ref [] in
  let n = ref 0 in
  for page = 0 to Heap_file.block_count file - 1 do
    let p = Heap_file.read_page file page in
    for slot = 0 to Page.tuple_count p - 1 do
      let t = Page.get p ~keep slot in
      entries := { key = t.(attr_index); rid = { Heap_file.page; slot } } :: !entries;
      incr n
    done
  done;
  let entries = Array.of_list !entries in
  Array.sort (fun a b -> Value.compare a.key b.key) entries;
  { attr; clustered; entries; stats }

let attr i = i.attr
let clustered i = i.clustered

(* First position with key >= v (lower bound). *)
let lower_bound i v =
  let lo = ref 0 and hi = ref (Array.length i.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare i.entries.(mid).key v < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* First position with key > v (upper bound). *)
let upper_bound i v =
  let lo = ref 0 and hi = ref (Array.length i.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare i.entries.(mid).key v <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* The rids of entries [start, stop). *)
let rids i start stop =
  Array.init (max 0 (stop - start)) (fun k -> i.entries.(start + k).rid)

(** Rids with key = [v]. *)
let lookup i v =
  Io_stats.record_index_lookup i.stats;
  rids i (lower_bound i v) (upper_bound i v)

(** Rids with [lo <= key <= hi]; [None] bounds are open. *)
let range i ?lo ?hi () =
  Io_stats.record_index_lookup i.stats;
  let start = match lo with None -> 0 | Some v -> lower_bound i v in
  let stop =
    match hi with None -> Array.length i.entries | Some v -> upper_bound i v
  in
  rids i start stop
