(** `TAGGR^M`: the middleware temporal-aggregation algorithm.

    Requires its argument sorted on the grouping attributes and [T1] (paper
    Section 3.4).  A second copy of each group is sorted internally on [T2];
    the two orderings are then swept like a sort-merge, adding a tuple's
    contribution when its period starts and removing it when it ends, so
    each constant interval is produced in one pass with O(log n) work per
    event.  The output is ordered on (grouping attributes, T1) — the
    algorithm "preserves order on the grouping attributes" (paper Query 1),
    which lets the optimizer drop a final sort. *)

open Tango_rel
open Tango_algebra

let taggr ~(group_by : string list) ~(aggs : Op.agg list) (arg : Cursor.t) :
    Cursor.t =
  let s = Cursor.schema arg in
  let t1_name, t2_name =
    match Op.period_attrs s with
    | Some p -> p
    | None -> Op.ill_formed "TAGGR argument must be temporal"
  in
  let t1_idx = Schema.index s t1_name and t2_idx = Schema.index s t2_name in
  let group_idxs = List.map (Schema.index s) group_by in
  let agg_arg_idx (a : Op.agg) =
    Option.map (Schema.index s) a.Op.arg
  in
  let agg_specs =
    List.map
      (fun (a : Op.agg) ->
        let idx = agg_arg_idx a in
        let arg_dtype = Option.map (Schema.dtype_at s) idx in
        (a, idx, arg_dtype))
      aggs
  in
  let out_schema =
    Schema.make
      (List.map (fun g -> (g, Schema.dtype_of s g)) group_by
      @ [ ("T1", Value.TDate); ("T2", Value.TDate) ]
      @ List.map
          (fun (a : Op.agg) -> (a.Op.out, Op.agg_out_dtype s a))
          aggs)
  in
  (* the group reader: the argument read one tuple at a time, with a
     one-tuple lookahead *)
  let rd = ref (Cursor.reader arg) in
  let look = ref None in
  let group_idxs = Array.of_list group_idxs in
  let ng = Array.length group_idxs in
  (* same group as [first]: grouping values compared in place *)
  let rec same_group (t : Tuple.t) (first : Tuple.t) i =
    i = ng
    || Value.equal t.(group_idxs.(i)) first.(group_idxs.(i))
       && same_group t first (i + 1)
  in
  (* Read all tuples of the next group (argument is sorted on G) into
     [buf], a scratch array reused across groups; returns their number,
     0 at the end of the input. *)
  let buf = ref [||] in
  let read_group () =
    match !look with
    | None -> 0
    | Some first ->
        let n = ref 0 in
        let rec go t =
          if !n = Array.length !buf then begin
            let bigger = Array.make (max 16 (2 * !n)) t in
            Array.blit !buf 0 bigger 0 !n;
            buf := bigger
          end;
          !buf.(!n) <- t;
          incr n;
          look := Cursor.read !rd;
          match !look with
          | Some t when same_group t first 0 -> go t
          | _ -> ()
        in
        go first;
        !n
  in
  let specs = Array.of_list agg_specs in
  let na = Array.length specs in
  let value_of t = function Some i -> t.(i) | None -> Value.Null in
  (* The sweep of the current group, kept between pulls so that a group's
     constant intervals may straddle two batches.  The group's first copy
     is the first [len] slots of [buf], already sorted on T1 (argument
     order); [ends] is the second, sorted internally on T2 — the
     algorithm's "second sorting". *)
  let ends = ref [||] in
  let states = ref [||] in
  let active = ref 0 in
  let i = ref 0 (* next start event *) and j = ref 0 (* next end event *) in
  let prev = ref 0 in
  let started = ref false in
  let start_group len =
    ends := Array.sub !buf 0 len;
    Array.stable_sort (fun a b -> Value.compare a.(t2_idx) b.(t2_idx)) !ends;
    states :=
      Array.map
        (fun ((a : Op.agg), _, arg_dtype) -> Agg_state.create a.Op.fn ~arg_dtype)
        specs;
    active := 0;
    i := 0;
    j := 0;
    prev := 0;
    started := false
  in
  (* Advance the sweep by one event point, adding the constant interval
     that ends there (if any) to [out]. *)
  let out = Cursor.out () in
  let step () =
    let members = !buf and ends = !ends and states = !states in
    let len = Array.length ends in
    let next_point =
      if !i < len then
        min (Value.to_int members.(!i).(t1_idx)) (Value.to_int ends.(!j).(t2_idx))
      else Value.to_int ends.(!j).(t2_idx)
    in
    if !started && !active > 0 && !prev < next_point then begin
      (* grouping values, the constant interval, then the aggregates *)
      let first = members.(0) in
      let tuple = Array.make (ng + 2 + na) Value.Null in
      for g = 0 to ng - 1 do
        tuple.(g) <- first.(group_idxs.(g))
      done;
      tuple.(ng) <- Value.Date !prev;
      tuple.(ng + 1) <- Value.Date next_point;
      for k = 0 to na - 1 do
        tuple.(ng + 2 + k) <- Agg_state.value states.(k)
      done;
      Cursor.out_add out tuple
    end;
    (* Add tuples starting at this point... *)
    while !i < len && Value.to_int members.(!i).(t1_idx) = next_point do
      for k = 0 to na - 1 do
        let _, idx, _ = specs.(k) in
        Agg_state.add states.(k) (value_of members.(!i) idx)
      done;
      incr active;
      incr i
    done;
    (* ...and retire tuples ending here. *)
    while !j < len && Value.to_int ends.(!j).(t2_idx) = next_point do
      for k = 0 to na - 1 do
        let _, idx, _ = specs.(k) in
        Agg_state.remove states.(k) (value_of ends.(!j) idx)
      done;
      decr active;
      incr j
    done;
    prev := next_point;
    started := true
  in
  (* A batch is handed on when it holds {!Cursor.default_batch_size}
     tuples or when the input is exhausted. *)
  let next_batch () =
    let rec fill () =
      if Cursor.out_full out then ()
      else if !j < Array.length !ends then begin
        step ();
        fill ()
      end
      else
        match read_group () with
        | 0 -> ()
        | len ->
            start_group len;
            fill ()
    in
    fill ();
    Cursor.out_take out
  in
  Cursor.make ~schema:out_schema
    ~init:(fun () ->
      Cursor.init arg;
      rd := Cursor.reader arg;
      look := Cursor.read !rd;
      ends := [||];
      Cursor.out_clear out)
    ~next_batch
