(** A shared LRU buffer pool over (file, page) identities.

    The simulated DBMS routes page reads through a pool: a hit means the
    page was already resident (no I/O charged), a miss charges a page read
    and may evict the least-recently-used resident page.  Pages live in the
    heap files themselves (this is a simulation of residency, not a cache of
    bytes), so the pool only tracks identities and recency — with O(1)
    touch/evict via an intrusive doubly-linked list. *)

type key = { file_id : int; page_no : int }

type node = {
  key : key;
  mutable prev : node option;
  mutable next : node option;
}

let c_hits = Tango_obs.Counter.make "storage.pool_hits"
let c_misses = Tango_obs.Counter.make "storage.pool_misses"
let c_evictions = Tango_obs.Counter.make "storage.pool_evictions"

type t = {
  capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;  (** least recently used *)
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let resident p = p.resident
let hits p = p.hits
let misses p = p.misses
let evictions p = p.evictions

(* unlink a node from the recency list *)
let unlink p n =
  (match n.prev with
  | Some pr -> pr.next <- n.next
  | None -> p.head <- n.next);
  (match n.next with
  | Some nx -> nx.prev <- n.prev
  | None -> p.tail <- n.prev);
  n.prev <- None;
  n.next <- None

(* push a node to the front (most recently used) *)
let push_front p n =
  n.next <- p.head;
  n.prev <- None;
  (match p.head with Some h -> h.prev <- Some n | None -> ());
  p.head <- Some n;
  if p.tail = None then p.tail <- Some n

let evict_lru p =
  match p.tail with
  | None -> ()
  | Some lru ->
      unlink p lru;
      Hashtbl.remove p.table lru.key;
      p.resident <- p.resident - 1;
      p.evictions <- p.evictions + 1;
      Tango_obs.Counter.incr c_evictions

(** [touch p key]: record an access.  Returns [true] on a hit (page was
    resident), [false] on a miss (page is now resident, after evicting the
    LRU page if the pool was full). *)
let touch p key =
  match p.head with
  | Some h when h.key.file_id = key.file_id && h.key.page_no = key.page_no ->
      (* already the most recently used: a hit with nothing to relink *)
      p.hits <- p.hits + 1;
      Tango_obs.Counter.incr c_hits;
      true
  | _ -> (
      match Hashtbl.find_opt p.table key with
      | Some n ->
          p.hits <- p.hits + 1;
          Tango_obs.Counter.incr c_hits;
          unlink p n;
          push_front p n;
          true
      | None ->
          p.misses <- p.misses + 1;
          Tango_obs.Counter.incr c_misses;
          if p.resident >= p.capacity then evict_lru p;
          let n = { key; prev = None; next = None } in
          Hashtbl.replace p.table key n;
          push_front p n;
          p.resident <- p.resident + 1;
          false)

(** Drop every page of a file (table drop / truncation). *)
let invalidate_file p file_id =
  let victims =
    Hashtbl.fold
      (fun k n acc -> if k.file_id = file_id then (k, n) :: acc else acc)
      p.table []
  in
  List.iter
    (fun (k, n) ->
      unlink p n;
      Hashtbl.remove p.table k;
      p.resident <- p.resident - 1)
    victims
