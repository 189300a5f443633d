(** Fingerprint-keyed LRU plan cache.  See the interface for semantics.

    Every operation on a cache instance — lookup, insert, invalidation,
    replan notes, stats — runs under the instance's lock.  Key
    computation (normalize + hash) is pure and happens outside the
    lock. *)

(* process-wide mirrors (aggregated across caches; see Tango_obs) *)
let c_hits = Tango_obs.Counter.make "cache.hits"
let c_template_hits = Tango_obs.Counter.make "cache.template_hits"
let c_exact_hits = Tango_obs.Counter.make "cache.exact_hits"
let c_misses = Tango_obs.Counter.make "cache.misses"
let c_evictions = Tango_obs.Counter.make "cache.evictions"
let c_invalidations = Tango_obs.Counter.make "cache.invalidations"
let c_replans = Tango_obs.Counter.make "cache.replans"

let normalize_sql (sql : string) : string =
  let buf = Buffer.create (String.length sql) in
  let pending_space = ref false in
  let in_string = ref false in
  String.iter
    (fun ch ->
      if !in_string then begin
        (* copy quoted literals verbatim; a '' escape just toggles twice *)
        if ch = '\'' then in_string := false;
        Buffer.add_char buf ch
      end
      else
        match ch with
        | ' ' | '\t' | '\n' | '\r' -> pending_space := true
        | c ->
            if !pending_space && Buffer.length buf > 0 then
              Buffer.add_char buf ' ';
            pending_space := false;
            if c = '\'' then in_string := true;
            (* keywords (and unquoted identifiers, which SQL folds) are
               case-insensitive; only quoted literals keep their case *)
            Buffer.add_char buf (Char.uppercase_ascii c))
    sql;
  Buffer.contents buf

(* 64-bit FNV-1a *)
let key_of_sql (sql : string) : string =
  let normalized = normalize_sql sql in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    normalized;
  Printf.sprintf "%016Lx" !h

type kind = Exact | Template

type 'a entry = {
  normalized : string;  (* collision guard *)
  value : 'a;
  mutable last_used : int;  (* tick of the most recent find/add *)
  mutable replans : int;  (* sensitivity-guard re-optimizations *)
}

type stats = {
  hits : int;
  template_hits : int;
  exact_hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  replans : int;
  max_replans : int;
  last_invalidation : string option;
}

type 'a t = {
  capacity : int;
  lock : Mutex.t;  (** guards every mutable field below *)
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable template_hits : int;
  mutable exact_hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable replans : int;
  mutable max_replans : int;
  mutable last_invalidation : string option;
}

let create ?(capacity = 128) () =
  {
    capacity = max 1 capacity;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    template_hits = 0;
    exact_hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    replans = 0;
    max_replans = 0;
    last_invalidation = None;
  }

let capacity c = c.capacity
let length c = Mutex.protect c.lock (fun () -> Hashtbl.length c.table)

let find ?(kind = Exact) c ~sql =
  let normalized = normalize_sql sql in
  let key = key_of_sql sql in
  let result =
    Mutex.protect c.lock (fun () ->
        match Hashtbl.find_opt c.table key with
        | Some entry when String.equal entry.normalized normalized ->
            c.tick <- c.tick + 1;
            entry.last_used <- c.tick;
            c.hits <- c.hits + 1;
            (match kind with
            | Template -> c.template_hits <- c.template_hits + 1
            | Exact -> c.exact_hits <- c.exact_hits + 1);
            Some entry.value
        | _ ->
            c.misses <- c.misses + 1;
            None)
  in
  (match result with
  | Some _ ->
      Tango_obs.Counter.incr c_hits;
      Tango_obs.Counter.incr
        (match kind with Template -> c_template_hits | Exact -> c_exact_hits)
  | None -> Tango_obs.Counter.incr c_misses);
  result

let add c ~sql value =
  let key = key_of_sql sql in
  let normalized = normalize_sql sql in
  let evicted =
    Mutex.protect c.lock (fun () ->
        let evicted =
          if
            (not (Hashtbl.mem c.table key))
            && Hashtbl.length c.table >= c.capacity
          then begin
            (* evict the least-recently-used entry (smallest tick) *)
            let victim = ref None in
            Hashtbl.iter
              (fun key entry ->
                match !victim with
                | Some (_, best) when best.last_used <= entry.last_used -> ()
                | _ -> victim := Some (key, entry))
              c.table;
            match !victim with
            | None -> false
            | Some (key, _) ->
                Hashtbl.remove c.table key;
                c.evictions <- c.evictions + 1;
                true
          end
          else false
        in
        c.tick <- c.tick + 1;
        (* replacing an entry for the same statement (the sensitivity
           guard refreshing its bucket table) keeps its replan count *)
        let replans =
          match Hashtbl.find_opt c.table key with
          | Some prev when String.equal prev.normalized normalized ->
              prev.replans
          | _ -> 0
        in
        let entry = { normalized; value; last_used = c.tick; replans } in
        Hashtbl.replace c.table key entry;
        evicted)
  in
  if evicted then Tango_obs.Counter.incr c_evictions

let note_replan c ~sql =
  let normalized = normalize_sql sql in
  let key = key_of_sql sql in
  Mutex.protect c.lock (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some entry when String.equal entry.normalized normalized ->
          entry.replans <- entry.replans + 1;
          c.replans <- c.replans + 1;
          if entry.replans > c.max_replans then
            c.max_replans <- entry.replans
      | _ -> ());
  Tango_obs.Counter.incr c_replans

let invalidate_all ?(reason = "invalidate") c =
  Mutex.protect c.lock (fun () ->
      Hashtbl.reset c.table;
      c.invalidations <- c.invalidations + 1;
      c.last_invalidation <- Some reason);
  Tango_obs.Counter.incr c_invalidations

let stats c =
  Mutex.protect c.lock (fun () ->
      {
        hits = c.hits;
        template_hits = c.template_hits;
        exact_hits = c.exact_hits;
        misses = c.misses;
        evictions = c.evictions;
        invalidations = c.invalidations;
        replans = c.replans;
        max_replans = c.max_replans;
        last_invalidation = c.last_invalidation;
      })
