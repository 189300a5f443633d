(** `SORT^M`: external merge sort in the middleware.

    The input is consumed at [init] into sorted runs of at most [run_size]
    tuples.  With the default run size, small and medium inputs sort in
    one in-memory run, which each pull hands out as the next slice of
    {!Cursor.default_batch_size} tuples.  Larger inputs take the
    multi-run path: each pull merges up to that many tuples out of the
    runs through a binary heap (the "very large relations"
    enhancement the paper lists as future work).  The sort is stable, which
    the list-equivalence reasoning of the rule set relies on. *)

open Tango_rel

let default_run_size = 65_536

type run = { tuples : Tuple.t array; mutable pos : int }

let sort ?(run_size = default_run_size) (order : Order.t) (arg : Cursor.t) :
    Cursor.t =
  let run_size = max 1 run_size in
  let schema = Cursor.schema arg in
  let cmp = Order.comparator order schema in
  let runs : run list ref = ref [] in
  let remaining = ref 0 in
  (* Heap of runs keyed by their current head tuple; ties broken by run
     index to keep the merge stable. *)
  let heap : (Tuple.t * int * run) array ref = ref [||] in
  let heap_len = ref 0 in
  let heap_cmp (t1, i1, _) (t2, i2, _) =
    match cmp t1 t2 with 0 -> Int.compare i1 i2 | c -> c
  in
  let heap_swap i j =
    let tmp = !heap.(i) in
    !heap.(i) <- !heap.(j);
    !heap.(j) <- tmp
  in
  let rec sift_up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if heap_cmp !heap.(i) !heap.(parent) < 0 then begin
        heap_swap i parent;
        sift_up parent
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < !heap_len && heap_cmp !heap.(l) !heap.(!smallest) < 0 then
      smallest := l;
    if r < !heap_len && heap_cmp !heap.(r) !heap.(!smallest) < 0 then
      smallest := r;
    if !smallest <> i then begin
      heap_swap i !smallest;
      sift_down !smallest
    end
  in
  let heap_push entry =
    if !heap_len >= Array.length !heap then begin
      let bigger =
        Array.make (max 4 (2 * Array.length !heap)) entry
      in
      Array.blit !heap 0 bigger 0 !heap_len;
      heap := bigger
    end;
    !heap.(!heap_len) <- entry;
    incr heap_len;
    sift_up (!heap_len - 1)
  in
  (* Pop the least head and push its run's next tuple; the caller
     guarantees a tuple remains. *)
  let pop () =
    let t, i, r = !heap.(0) in
    decr heap_len;
    if !heap_len > 0 then begin
      !heap.(0) <- !heap.(!heap_len);
      sift_down 0
    end;
    if r.pos < Array.length r.tuples then begin
      heap_push (r.tuples.(r.pos), i, r);
      r.pos <- r.pos + 1
    end;
    t
  in
  (* With a single run (the usual case) the sorted run itself is handed
     out in slices, bypassing the heap. *)
  let single : run option ref = ref None in
  let build_runs () =
    runs := [];
    remaining := 0;
    (* Input batches since the last run was cut, newest first. *)
    let pending = ref [] in
    let pending_len = ref 0 in
    let add_run arr =
      Array.stable_sort cmp arr;
      runs := { tuples = arr; pos = 0 } :: !runs
    in
    (* Cut every full run out of the pending batches; the rest stays
       pending as one array.  Each run is allocated at its exact size. *)
    let cut_runs () =
      let all = Array.concat (List.rev !pending) in
      let len = Array.length all in
      let k = ref 0 in
      while len - !k >= run_size do
        add_run (Array.sub all !k run_size);
        k := !k + run_size
      done;
      pending := (if !k < len then [ Array.sub all !k (len - !k) ] else []);
      pending_len := len - !k
    in
    (* Runs are generated from batch pulls: one closure call per input
       batch rather than per tuple. *)
    let rec consume () =
      match Cursor.next_batch arg with
      | None -> ()
      | Some b ->
          pending := b :: !pending;
          pending_len := !pending_len + Array.length b;
          remaining := !remaining + Array.length b;
          if !pending_len >= run_size then cut_runs ();
          consume ()
    in
    consume ();
    if !pending_len > 0 then add_run (Array.concat (List.rev !pending));
    (* Earlier runs get smaller indexes so ties resolve in input order
       (stability across runs). *)
    runs := List.rev !runs;
    heap := [||];
    heap_len := 0;
    match !runs with
    | [ r ] -> single := Some r
    | rs ->
        single := None;
        List.iteri
          (fun i r ->
            r.pos <- 1;
            heap_push (r.tuples.(0), i, r))
          rs
  in
  Cursor.make ~schema
    ~init:(fun () ->
      Cursor.init arg;
      build_runs ())
    ~next_batch:(fun () ->
      if !remaining = 0 then None
      else begin
        let n = min !remaining Cursor.default_batch_size in
        remaining := !remaining - n;
        match !single with
        | Some r ->
            let out = Array.sub r.tuples r.pos n in
            r.pos <- r.pos + n;
            Some out
        | None ->
            let out = Array.make n (pop ()) in
            for k = 1 to n - 1 do
              out.(k) <- pop ()
            done;
            Some out
      end)
