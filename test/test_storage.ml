(* Tests for pages, heap files, ordered indexes, and I/O accounting. *)

open Tango_rel
open Tango_storage

let schema = Schema.make [ ("ID", Value.TInt); ("Name", Value.TStr) ]
let tup i name = Tuple.of_list [ Value.Int i; Value.Str name ]

(* A page stores tuples already serialized. *)
let serialized t =
  let buf = Buffer.create 64 in
  Tuple.serialize buf t;
  buf

let both = [| true; true |]

(* The keep-mask selecting every field of a file's schema. *)
let all_columns f = Array.make (Schema.arity (Heap_file.schema f)) true

let test_page_append_get () =
  let p = Page.create () in
  Alcotest.(check bool) "append 1" true (Page.append p (serialized (tup 1 "a")));
  Alcotest.(check bool) "append 2" true (Page.append p (serialized (tup 2 "b")));
  Alcotest.(check int) "count" 2 (Page.tuple_count p);
  Alcotest.(check bool) "get 0" true (Tuple.equal (Page.get p ~keep:both 0) (tup 1 "a"));
  Alcotest.(check bool) "get 1" true (Tuple.equal (Page.get p ~keep:both 1) (tup 2 "b"));
  let all = Page.tuples p ~keep:both in
  Alcotest.(check bool) "tuples in slot order" true
    (Array.length all = 2 && Tuple.equal all.(0) (tup 1 "a")
    && Tuple.equal all.(1) (tup 2 "b"));
  Alcotest.(check bool) "a skipped field reads NULL in its place" true
    (Tuple.equal (Page.get p ~keep:[| false; true |] 1) [| Value.Null; Value.Str "b" |]
    && Tuple.equal (Page.tuples p ~keep:[| true; false |]).(0) [| Value.Int 1; Value.Null |]);
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Page.get: slot out of range") (fun () ->
      ignore (Page.get p ~keep:both 2))

let test_page_overflow () =
  let p = Page.create ~capacity:64 () in
  let rec fill i =
    if Page.append p (serialized (tup i "xxxxxxxx")) then fill (i + 1) else i
  in
  let n = fill 0 in
  Alcotest.(check bool) "page fills" true (n > 0);
  Alcotest.(check int) "count matches" n (Page.tuple_count p);
  Alcotest.check_raises "oversized tuple"
    (Invalid_argument "Page.append: tuple larger than page") (fun () ->
      ignore (Page.append p (serialized (tup 1 (String.make 100 'x')))))

let test_heap_file_roundtrip () =
  let stats = Io_stats.create () in
  let f = Heap_file.create ~stats schema in
  for i = 1 to 100 do
    ignore (Heap_file.append f (tup i ("name" ^ string_of_int i)))
  done;
  Alcotest.(check int) "tuple count" 100 (Heap_file.tuple_count f);
  let back = List.of_seq (Heap_file.scan f) in
  Alcotest.(check int) "scanned all" 100 (List.length back);
  Alcotest.(check bool) "first" true (Tuple.equal (List.hd back) (tup 1 "name1"))

let test_heap_file_blocks () =
  let stats = Io_stats.create () in
  let f = Heap_file.create ~page_capacity:256 ~stats schema in
  for i = 1 to 100 do
    ignore (Heap_file.append f (tup i "0123456789"))
  done;
  Alcotest.(check bool) "multiple blocks" true (Heap_file.block_count f > 1);
  let before = Io_stats.copy stats in
  ignore (List.of_seq (Heap_file.scan f));
  let d = Io_stats.diff stats before in
  Alcotest.(check int) "page reads = blocks" (Heap_file.block_count f) d.Io_stats.page_reads;
  Alcotest.(check int) "tuples read" 100 d.Io_stats.tuples_read;
  (* page-at-a-time: one pull per block, each a non-empty page, charged
     as it is pulled *)
  let before = Io_stats.copy stats in
  let pull = Heap_file.scan_pages f ~keep:(all_columns f) in
  let first = Option.get (pull ()) in
  Alcotest.(check int) "one page charged" 1
    (Io_stats.diff stats before).Io_stats.page_reads;
  let rec rest acc =
    match pull () with None -> List.rev acc | Some b -> rest (b :: acc)
  in
  let batches = first :: rest [] in
  Alcotest.(check int) "one batch per block" (Heap_file.block_count f)
    (List.length batches);
  Alcotest.(check bool) "no empty batch" true
    (List.for_all (fun b -> Array.length b > 0) batches);
  Alcotest.(check bool) "same tuples as scan" true
    (List.for_all2 Tuple.equal
       (List.concat_map Array.to_list batches)
       (List.of_seq (Heap_file.scan f)));
  Alcotest.(check bool) "stays exhausted" true (pull () = None)

let test_heap_file_fetch () =
  let stats = Io_stats.create () in
  let f = Heap_file.create ~stats schema in
  let rids = List.init 10 (fun i -> Heap_file.append f (tup i "x")) in
  List.iteri
    (fun i rid ->
      Alcotest.(check bool) "fetch" true
        (Tuple.equal (Heap_file.fetch f ~keep:(all_columns f) rid) (tup i "x")))
    rids

let test_heap_file_avg_size () =
  let stats = Io_stats.create () in
  let f = Heap_file.create ~stats schema in
  ignore (Heap_file.append f (tup 1 "ab"));
  ignore (Heap_file.append f (tup 2 "cdef"));
  (* Int = 8 bytes, Str = len + 4. *)
  let expected = float_of_int ((8 + 6) + (8 + 8)) /. 2.0 in
  Alcotest.(check (float 0.001)) "avg size" expected (Heap_file.avg_tuple_size f)

let make_indexed n =
  let stats = Io_stats.create () in
  let f = Heap_file.create ~stats schema in
  (* keys inserted in scrambled order, with duplicates every 10 *)
  for i = 0 to n - 1 do
    let k = (i * 7) mod n / 1 in
    ignore (Heap_file.append f (tup (k mod (n / 2)) ("v" ^ string_of_int i)))
  done;
  let idx = Ordered_index.build ~stats f "ID" in
  (f, idx, stats)

let test_index_lookup () =
  let f, idx, _ = make_indexed 100 in
  let rids = Ordered_index.lookup idx (Value.Int 7) in
  Array.iter
    (fun rid ->
      let t = Heap_file.fetch f ~keep:(all_columns f) rid in
      Alcotest.(check bool) "key matches" true (Value.equal t.(0) (Value.Int 7)))
    rids;
  (* Every tuple with ID=7 is found. *)
  let expected =
    Seq.fold_left
      (fun acc t -> if Value.equal t.(0) (Value.Int 7) then acc + 1 else acc)
      0 (Heap_file.scan f)
  in
  Alcotest.(check int) "all found" expected (Array.length rids)

let test_index_range () =
  let f, idx, _ = make_indexed 100 in
  let rids = Ordered_index.range idx ~lo:(Value.Int 10) ~hi:(Value.Int 20) () in
  Array.iter
    (fun rid ->
      let v = Value.to_int (Heap_file.fetch f ~keep:(all_columns f) rid).(0) in
      Alcotest.(check bool) "in range" true (v >= 10 && v <= 20))
    rids;
  let expected =
    Seq.fold_left
      (fun acc t ->
        let v = Value.to_int t.(0) in
        if v >= 10 && v <= 20 then acc + 1 else acc)
      0 (Heap_file.scan f)
  in
  Alcotest.(check int) "range complete" expected (Array.length rids)

let test_index_open_ranges () =
  let _, idx, _ = make_indexed 50 in
  let all = Ordered_index.range idx () in
  Alcotest.(check int) "open range = all" 50 (Array.length all);
  let lo_only = Ordered_index.range idx ~lo:(Value.Int 0) () in
  Alcotest.(check int) "lo 0 = all" 50 (Array.length lo_only)

let test_index_lookup_counter () =
  let _, idx, stats = make_indexed 20 in
  let before = stats.Io_stats.index_lookups in
  ignore (Ordered_index.lookup idx (Value.Int 1));
  ignore (Ordered_index.range idx ~lo:(Value.Int 1) ());
  Alcotest.(check int) "lookups counted" (before + 2) stats.Io_stats.index_lookups

(* ---- buffer pool ---- *)

let test_pool_hit_miss () =
  let pool = Buffer_pool.create ~capacity:2 in
  let k i = { Buffer_pool.file_id = 1; page_no = i } in
  Alcotest.(check bool) "first access misses" false (Buffer_pool.touch pool (k 0));
  Alcotest.(check bool) "second access hits" true (Buffer_pool.touch pool (k 0));
  ignore (Buffer_pool.touch pool (k 1));
  (* capacity 2: page 0 and 1 resident; touching 2 evicts LRU (page 0) *)
  ignore (Buffer_pool.touch pool (k 2));
  Alcotest.(check int) "one eviction" 1 (Buffer_pool.evictions pool);
  Alcotest.(check bool) "page 0 evicted" false (Buffer_pool.touch pool (k 0));
  Alcotest.(check int) "resident bounded" 2 (Buffer_pool.resident pool)

let test_pool_lru_order () =
  let pool = Buffer_pool.create ~capacity:2 in
  let k i = { Buffer_pool.file_id = 1; page_no = i } in
  ignore (Buffer_pool.touch pool (k 0));
  ignore (Buffer_pool.touch pool (k 1));
  (* touch 0 again: now 1 is the LRU *)
  ignore (Buffer_pool.touch pool (k 0));
  ignore (Buffer_pool.touch pool (k 2));
  Alcotest.(check bool) "0 stayed resident" true (Buffer_pool.touch pool (k 0));
  Alcotest.(check bool) "1 was evicted" false (Buffer_pool.touch pool (k 1))

let test_pool_invalidate () =
  let pool = Buffer_pool.create ~capacity:8 in
  let k f i = { Buffer_pool.file_id = f; page_no = i } in
  ignore (Buffer_pool.touch pool (k 1 0));
  ignore (Buffer_pool.touch pool (k 1 1));
  ignore (Buffer_pool.touch pool (k 2 0));
  Buffer_pool.invalidate_file pool 1;
  Alcotest.(check int) "only file 2 remains" 1 (Buffer_pool.resident pool);
  Alcotest.(check bool) "file 2 still resident" true (Buffer_pool.touch pool (k 2 0))

let test_heap_file_with_pool () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:64 in
  let f = Heap_file.create ~page_capacity:256 ~pool ~stats schema in
  for i = 1 to 100 do
    ignore (Heap_file.append f (tup i "0123456789"))
  done;
  (* first scan: all misses -> page reads charged *)
  let before = stats.Io_stats.page_reads in
  ignore (List.of_seq (Heap_file.scan f));
  let cold = stats.Io_stats.page_reads - before in
  Alcotest.(check int) "cold scan reads all blocks" (Heap_file.block_count f) cold;
  (* second scan: everything resident -> no page reads *)
  let before = stats.Io_stats.page_reads in
  ignore (List.of_seq (Heap_file.scan f));
  Alcotest.(check int) "warm scan reads nothing" 0 (stats.Io_stats.page_reads - before);
  Alcotest.(check bool) "pool saw hits" true (Buffer_pool.hits pool > 0)

(* property: resident never exceeds capacity; hit+miss = touches *)
let prop_pool_invariants =
  QCheck.Test.make ~name:"buffer pool invariants" ~count:200
    QCheck.(pair (int_range 1 8) (list (pair (int_range 1 3) (int_range 0 20))))
    (fun (cap, accesses) ->
      let pool = Buffer_pool.create ~capacity:cap in
      List.iter
        (fun (f, p) ->
          ignore (Buffer_pool.touch pool { Buffer_pool.file_id = f; page_no = p }))
        accesses;
      Buffer_pool.resident pool <= cap
      && Buffer_pool.hits pool + Buffer_pool.misses pool = List.length accesses
      && Buffer_pool.resident pool
         = Buffer_pool.misses pool - Buffer_pool.evictions pool)

(* property: heap-file roundtrip preserves tuples in order *)
let prop_heap_roundtrip =
  QCheck.Test.make ~name:"heap file preserves tuple sequence" ~count:100
    QCheck.(list (pair small_signed_int (string_of_size (QCheck.Gen.int_bound 20))))
    (fun rows ->
      let stats = Io_stats.create () in
      let f = Heap_file.create ~page_capacity:512 ~stats schema in
      let input = List.map (fun (i, s) -> tup i s) rows in
      List.iter (fun t -> ignore (Heap_file.append f t)) input;
      let out = List.of_seq (Heap_file.scan f) in
      List.length out = List.length input
      && List.for_all2 Tuple.equal input out)

let prop_index_finds_all =
  QCheck.Test.make ~name:"index range agrees with scan filter" ~count:100
    QCheck.(pair (list small_nat) (pair small_nat small_nat))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let stats = Io_stats.create () in
      let f = Heap_file.create ~stats schema in
      List.iteri (fun i k -> ignore (Heap_file.append f (tup k ("r" ^ string_of_int i)))) keys;
      let idx = Ordered_index.build ~stats f "ID" in
      let via_index =
        Ordered_index.range idx ~lo:(Value.Int lo) ~hi:(Value.Int hi) ()
        |> Array.length
      in
      let via_scan =
        List.length (List.filter (fun k -> k >= lo && k <= hi) keys)
      in
      via_index = via_scan)

let () =
  Alcotest.run "tango_storage"
    [
      ( "page",
        [
          Alcotest.test_case "append/get" `Quick test_page_append_get;
          Alcotest.test_case "overflow" `Quick test_page_overflow;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_heap_file_roundtrip;
          Alcotest.test_case "blocks & io accounting" `Quick test_heap_file_blocks;
          Alcotest.test_case "fetch by rid" `Quick test_heap_file_fetch;
          Alcotest.test_case "avg tuple size" `Quick test_heap_file_avg_size;
        ] );
      ( "index",
        [
          Alcotest.test_case "point lookup" `Quick test_index_lookup;
          Alcotest.test_case "range lookup" `Quick test_index_range;
          Alcotest.test_case "open ranges" `Quick test_index_open_ranges;
          Alcotest.test_case "lookup counter" `Quick test_index_lookup_counter;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss/evict" `Quick test_pool_hit_miss;
          Alcotest.test_case "LRU order" `Quick test_pool_lru_order;
          Alcotest.test_case "invalidate file" `Quick test_pool_invalidate;
          Alcotest.test_case "heap file integration" `Quick test_heap_file_with_pool;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heap_roundtrip;
          QCheck_alcotest.to_alcotest prop_index_finds_all;
          QCheck_alcotest.to_alcotest prop_pool_invariants;
        ] );
    ]
