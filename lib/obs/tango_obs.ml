(** TANGO observability: spans, counters and histograms for the whole
    middleware stack.

    The paper's thesis is deciding {e where} work runs — middleware or
    DBMS — from cost estimates and measured feedback; this module makes
    those decisions observable.  Three primitives:

    - {b counters} ({!Counter}): monotonic event counts (page reads,
      DBMS statements, rules fired).  Always live — an increment is one
      atomic add — and registered by name in a process-wide registry.
    - {b histograms} ({!Histogram}): value distributions over fixed
      buckets (query and request latencies).  Same registry.
    - {b spans} ({!Trace}): a hierarchical timed trace of one query
      (parse/optimize/translate/execute phases, with the executed operator
      tree grafted underneath).  Collection is {e off by default}: when no
      trace is active, [Trace.span] is a single branch and closure call,
      so instrumented code pays near-zero overhead.

    Shared state: counters are one [int Atomic.t] each, histograms take a
    per-instance [Mutex.t] around their compound updates, the name
    registries are guarded by one registry lock, and trace collection
    state lives in domain-local storage — every domain collects its own
    trace.

    Everything is read two ways here: a rendered span tree
    ([Trace.to_string], the EXPLAIN-ANALYZE-style output of
    [tango --trace]) and the programmatic {!Registry.snapshot} API.  The
    machine-readable renderings live in [tango_monitor]: Prometheus text
    for the registry and Chrome trace JSON for spans. *)

module Clock = Clock
module Runtime = Runtime

let now_us () = Clock.wall_us ()
let mono_us = Clock.mono_us

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          (* shortest representation that round-trips *)
          Buffer.add_string b (Printf.sprintf "%.17g" f)
        else Buffer.add_string b "null"
    | String s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            emit b v)
          kvs;
        Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 256 in
    emit b j;
    Buffer.contents b

  (* Minimal recursive-descent reader for the same document model — just
     enough for request bodies ([POST /query] with bound parameters).
     Numbers with a fraction or exponent become [Float], others [Int];
     the only escapes decoded are the ones [escape] emits (plus [\/] and
     [\b], [\f] passed through; [\uXXXX] below 0x80 decodes, the rest is
     kept verbatim — good enough for SQL text and parameter values). *)
  exception Parse_error of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let w = String.length word in
      if !pos + w <= n && String.sub s !pos w = word then begin
        pos := !pos + w;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= n then fail "dangling escape";
              (match s.[!pos + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 5 >= n then fail "truncated \\u escape";
                  let hex = String.sub s (!pos + 2) 4 in
                  (match int_of_string_opt ("0x" ^ hex) with
                  | Some code when code < 0x80 ->
                      Buffer.add_char b (Char.chr code)
                  | Some _ -> Buffer.add_string b ("\\u" ^ hex)
                  | None -> fail "bad \\u escape");
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              pos := !pos + 2;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let is_num = ref false in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' -> true
        | '.' | 'e' | 'E' | '+' | '-' ->
            is_num := true;
            true
        | _ -> false
      do
        incr pos
      done;
      let text = String.sub s start (!pos - start) in
      if !is_num then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos < n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

(* One lock guards the find-or-create name registries of both counters
   and histograms (creation is rare; reads load an atomic or take the
   per-instance lock, never this one). *)
let registry_lock = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  (* process-wide registry; [make] is find-or-create so independent
     modules referring to the same name share one counter *)
  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
            let c = { name; cell = Atomic.make 0 } in
            Hashtbl.replace registry name c;
            c)

  let name c = c.name
  let incr c = Atomic.incr c.cell
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let value c = Atomic.get c.cell
  let reset c = Atomic.set c.cell 0
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Fixed exponential bucket bounds shared by every histogram: 1, 2, 4,
     ... 2^23 (≈8.4e6).  With the usual microsecond observations that
     spans 1µs to ~8.4s at factor 2; one extra overflow cell catches the
     rest.  Fixed bounds render directly as Prometheus cumulative
     buckets, and they are the only distribution state kept: quantiles
     are read off them. *)
  let bucket_bounds = Array.init 24 (fun i -> float_of_int (1 lsl i))

  type t = {
    lock : Mutex.t;  (** guards every mutable field below *)
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
    buckets : int array;  (** per-bucket counts; last cell is overflow *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
            let h =
              {
                lock = Mutex.create ();
                count = 0;
                sum = 0.0;
                min = infinity;
                max = neg_infinity;
                buckets = Array.make (Array.length bucket_bounds + 1) 0;
              }
            in
            Hashtbl.replace registry name h;
            h)

  (* Index of the first bound >= v, or the overflow cell.  A linear scan
     over 24 bounds beats binary search at this size and the typical
     (small-duration) observation lands in the first few cells anyway. *)
  let bucket_index v =
    let n = Array.length bucket_bounds in
    let rec go i = if i >= n || v <= bucket_bounds.(i) then i else go (i + 1) in
    go 0

  let observe h v =
    Mutex.protect h.lock (fun () ->
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        let i = bucket_index v in
        h.buckets.(i) <- h.buckets.(i) + 1;
        if v < h.min then h.min <- v;
        if v > h.max then h.max <- v)

  (* Single-word reads: atomic at the hardware level, no lock needed. *)
  let count h = h.count
  let sum h = h.sum
  let min_value h = if h.count = 0 then 0.0 else h.min
  let max_value h = if h.count = 0 then 0.0 else h.max
  let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

  (* Only called with [h.lock] held. *)
  let cumulative_buckets_unlocked h =
    let acc = ref 0 in
    let below =
      Array.to_list
        (Array.mapi
           (fun i bound ->
             acc := !acc + h.buckets.(i);
             (bound, !acc))
           bucket_bounds)
    in
    below @ [ (infinity, h.count) ]

  (* The upper bound of the bucket holding the observation of rank
     ⌈q·count⌉, clamped to [max]: exact about the bucket, no sort.  The
     one quantile rule, shared by {!quantile} and the registry. *)
  let quantile_of_buckets ~count ~max cumulative q =
    if count <= 0 then 0.0
    else
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      match List.find_opt (fun (_, c) -> c >= rank) cumulative with
      | Some (bound, _) -> Float.min bound max
      | None -> max

  let quantile h q =
    Mutex.protect h.lock (fun () ->
        quantile_of_buckets ~count:h.count ~max:h.max
          (cumulative_buckets_unlocked h) q)

  (* count, sum, min, max and the cumulative buckets under one lock
     acquisition, so a registry snapshot of one histogram describes one
     instant (no torn snapshots under concurrent observes). *)
  let snapshot_stats h =
    Mutex.protect h.lock (fun () ->
        ( h.count,
          h.sum,
          (if h.count = 0 then 0.0 else h.min),
          (if h.count = 0 then 0.0 else h.max),
          cumulative_buckets_unlocked h ))

  let reset h =
    Mutex.protect h.lock (fun () ->
        h.count <- 0;
        h.sum <- 0.0;
        h.min <- infinity;
        h.max <- neg_infinity;
        Array.fill h.buckets 0 (Array.length h.buckets) 0)
end

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                   *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type histogram_stats = {
    count : int;
    sum : float;
    min : float;
    max : float;
    mean : float;
    p50 : float;  (** bucket quantiles (see {!Histogram.quantile}) *)
    p95 : float;
    p99 : float;
    buckets : (float * int) list;
        (** cumulative [(upper bound, observations <= bound)] over
            the fixed bucket bounds, closed by [(infinity, count)] *)
  }

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    histograms : (string * histogram_stats) list;  (** sorted by name *)
  }

  (* Mean and quantiles follow from count, sum, max and the buckets. *)
  let stats ~count ~sum ~min ~max buckets =
    let q = Histogram.quantile_of_buckets ~count ~max buckets in
    {
      count;
      sum;
      min;
      max;
      mean = (if count = 0 then 0.0 else sum /. float_of_int count);
      p50 = q 0.50;
      p95 = q 0.95;
      p99 = q 0.99;
      buckets;
    }

  let snapshot () : snapshot =
    (* Collect the instances under the registry lock (a concurrent
       [make] may be resizing the tables), then read each instance
       through its own domain-safe accessors. *)
    let counter_list =
      Mutex.protect registry_lock (fun () ->
          Hashtbl.fold (fun name c acc -> (name, c) :: acc) Counter.registry [])
    and histogram_list =
      Mutex.protect registry_lock (fun () ->
          Hashtbl.fold
            (fun name h acc -> (name, h) :: acc)
            Histogram.registry [])
    in
    let counters =
      List.map (fun (name, c) -> (name, Counter.value c)) counter_list
      |> List.sort compare
    in
    let histograms =
      List.map
        (fun (name, h) ->
          let count, sum, min, max, buckets = Histogram.snapshot_stats h in
          (name, stats ~count ~sum ~min ~max buckets))
        histogram_list
      |> List.sort compare
    in
    { counters; histograms }

  let counter_value (s : snapshot) name =
    match List.assoc_opt name s.counters with Some v -> v | None -> 0

  let reset () =
    let counter_list =
      Mutex.protect registry_lock (fun () ->
          Hashtbl.fold (fun _ c acc -> c :: acc) Counter.registry [])
    and histogram_list =
      Mutex.protect registry_lock (fun () ->
          Hashtbl.fold (fun _ h acc -> h :: acc) Histogram.registry [])
    in
    List.iter Counter.reset counter_list;
    List.iter Histogram.reset histogram_list

  let pp ppf (s : snapshot) =
    List.iter (fun (n, v) -> Fmt.pf ppf "%-40s %12d@." n v) s.counters;
    List.iter
      (fun (n, (h : histogram_stats)) ->
        Fmt.pf ppf
          "%-40s count=%d mean=%.1f min=%.1f max=%.1f p50=%.1f p95=%.1f \
           p99=%.1f@."
          n h.count h.mean h.min h.max h.p50 h.p95 h.p99)
      s.histograms
end

(* ------------------------------------------------------------------ *)
(* Traces                                                               *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type value = Int of int | Float of float | Str of string

  type span = {
    name : string;
    mutable elapsed_us : float;
    mutable attrs : (string * value) list;  (** in insertion order *)
    mutable children : span list;  (** in execution order *)
  }

  let make ?(elapsed_us = 0.0) ?(attrs = []) ?(children = []) name : span =
    { name; elapsed_us; attrs; children }

  (* Collection state: a stack of open spans (innermost first) plus the
     root of the finished trace.  Domain-local — each domain collects
     its own trace, so instrumentation points never race across
     domains.  [collecting = false] is the fast path: every
     instrumentation point checks this single flag first. *)
  let collecting : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

  let stack : span list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  let finished : span option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let active () = Domain.DLS.get collecting

  let start () =
    Domain.DLS.set collecting true;
    Domain.DLS.set stack [];
    Domain.DLS.set finished None

  let attr name v =
    match Domain.DLS.get stack with
    | [] -> ()
    | s :: _ -> s.attrs <- s.attrs @ [ (name, v) ]

  (* Attach a finished span (or a whole pre-built subtree, e.g. the
     executed operator tree) under the innermost open span. *)
  let graft (child : span) =
    if Domain.DLS.get collecting then
      match Domain.DLS.get stack with
      | [] -> ()
      | s :: _ -> s.children <- s.children @ [ child ]

  let close_span s t0 =
    s.elapsed_us <- mono_us () -. t0;
    (match Domain.DLS.get stack with
    | top :: rest when top == s -> Domain.DLS.set stack rest
    | _ -> () (* unbalanced exit; drop silently rather than corrupt *));
    match Domain.DLS.get stack with
    | parent :: _ -> parent.children <- parent.children @ [ s ]
    | [] -> Domain.DLS.set finished (Some s)

  let span name f =
    if not (Domain.DLS.get collecting) then f ()
    else begin
      let s = make name in
      Domain.DLS.set stack (s :: Domain.DLS.get stack);
      let t0 = mono_us () in
      Fun.protect ~finally:(fun () -> close_span s t0) f
    end

  let finish () =
    (* close any spans left open (e.g. an exception unwound past them) *)
    List.iter
      (fun s ->
        match Domain.DLS.get stack with
        | top :: _ when top == s -> close_span s (mono_us ())
        | _ -> ())
      (Domain.DLS.get stack);
    Domain.DLS.set collecting false;
    Domain.DLS.set stack [];
    let r = Domain.DLS.get finished in
    Domain.DLS.set finished None;
    r

  let pp_value ppf = function
    | Int i -> Fmt.pf ppf "%d" i
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.0f" f
        else Fmt.pf ppf "%.1f" f
    | Str s -> Fmt.pf ppf "%s" s

  let pp_attrs ppf = function
    | [] -> ()
    | attrs ->
        Fmt.pf ppf "  [%s]"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Fmt.str "%s=%a" k pp_value v)
                attrs))

  (** EXPLAIN-ANALYZE-style rendering: one line per span with wall time
      and attributes, children indented under box-drawing guides. *)
  let render ppf (root : span) =
    let rec go prefix is_last s =
      let branch, extend =
        if prefix = "" then ("", "")
        else if is_last then ("└─ ", "   ")
        else ("├─ ", "│  ")
      in
      Fmt.pf ppf "%s%s%-24s %9.2f ms%a@." prefix branch s.name
        (s.elapsed_us /. 1000.0) pp_attrs s.attrs;
      let n = List.length s.children in
      List.iteri
        (fun i c ->
          go
            (if prefix = "" then "  " else prefix ^ extend)
            (i = n - 1) c)
        s.children
    in
    go "" true root

  let to_string root = Fmt.str "%a" render root

  (* tree search helpers, used by tests and the CLI *)
  let rec find name (s : span) : span option =
    if String.equal s.name name then Some s
    else List.find_map (find name) s.children

  let rec fold f acc (s : span) =
    List.fold_left (fold f) (f acc s) s.children

  let attr_int (s : span) name : int option =
    match List.assoc_opt name s.attrs with
    | Some (Int i) -> Some i
    | Some (Float f) -> Some (int_of_float f)
    | _ -> None
end
