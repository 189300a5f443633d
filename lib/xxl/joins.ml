(** Middleware join algorithms: `MERGEJOIN^M` (regular join) and `TJOIN^M`
    (temporal join), both sort-merge over inputs sorted on the join
    attributes, as the paper implements them (Section 4.1, rules T2/T3).

    Both run on one group-pair skeleton: each side's next run of equal
    join keys is read into a reused array, and the join pairs the two
    groups.  `MERGEJOIN^M` pairs them as a cross product; `TJOIN^M` finds
    the pairs whose periods overlap by a forward scan over the two groups
    in [T1] order (Bouros & Mamoulis, VLDB 2017), so it costs time linear
    in a group pair's input plus its output rather than in the product of
    the group sizes.  Either way pairs come out in (left position, right
    position) order within the groups, the order of a nested loop.

    The temporal join concatenates the non-period attributes of both inputs
    and appends the period intersection as unqualified [T1]/[T2], matching
    {!Tango_algebra.Op.Temporal_join}'s schema.  NULL join keys never
    match. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_temporal

type side_state = {
  cursor : Cursor.t;
  keys : int array;  (* join key positions *)
  mutable reader : Cursor.reader;
  mutable look : Tuple.t option;  (* one-tuple lookahead *)
}

(* Compare [a]'s key at positions [ka] with [b]'s at [kb] in place,
   lexicographically; allocates nothing. *)
let rec compare_keys (a : Tuple.t) ka (b : Tuple.t) kb i =
  if i = Array.length ka then 0
  else
    match Value.compare a.(ka.(i)) b.(kb.(i)) with
    | 0 -> compare_keys a ka b kb (i + 1)
    | c -> c

let rec has_null_key (t : Tuple.t) keys i =
  i < Array.length keys
  && (Value.is_null t.(keys.(i)) || has_null_key t keys (i + 1))

let make_side cursor keys =
  { cursor; keys; reader = Cursor.reader cursor; look = None }

(* The next tuple whose key holds no NULL: a NULL key equals nothing, so
   such tuples never join and the merge never sees them. *)
let rec read_keyed s =
  match Cursor.read s.reader with
  | Some t when has_null_key t s.keys 0 -> read_keyed s
  | r -> r

let side_init s =
  Cursor.init s.cursor;
  s.reader <- Cursor.reader s.cursor;
  s.look <- read_keyed s

let side_advance s = s.look <- read_keyed s

(* One side's current run of equal-key tuples: the first [len] slots of
   [ts], an array reused (and grown) across groups.  [ts.(0)] stands for
   the group's key. *)
type group = { mutable ts : Tuple.t array; mutable len : int }

let group_add g t =
  if g.len = Array.length g.ts then begin
    let bigger = Array.make (max 16 (2 * g.len)) t in
    Array.blit g.ts 0 bigger 0 g.len;
    g.ts <- bigger
  end;
  g.ts.(g.len) <- t;
  g.len <- g.len + 1

(* Read into [g] the run of tuples whose key equals the lookahead's. *)
let read_group s g =
  g.len <- 0;
  match s.look with
  | None -> ()
  | Some first ->
      let rec go t =
        group_add g t;
        side_advance s;
        match s.look with
        | Some t when compare_keys t s.keys first s.keys 0 = 0 -> go t
        | _ -> ()
      in
      go first

let key_indexes schema attrs =
  Array.of_list (List.map (Schema.index schema) attrs)

(* The group-pair skeleton shared by both joins.  For each pair of groups
   with equal keys, [start lg rg] prepares the pairing and [fill lg rg out]
   adds its output tuples to [out] until [out] is full (false) or the
   pairing is exhausted (true).  Native batch producer: a batch is handed
   on only when it holds {!Cursor.default_batch_size} tuples or when the
   left input is exhausted, so a group pair's output may straddle
   batches.

   The right input is read a group at a time as soon as its key reaches
   the left lookahead's, the left a group at a time on a key match and a
   tuple at a time otherwise; once the right input is exhausted the rest
   of the left is read and dropped. *)
let group_pairs ~schema ~left ~right ~left_keys ~right_keys ~start ~fill :
    Cursor.t =
  let ls = make_side left (key_indexes (Cursor.schema left) left_keys) in
  let rs = make_side right (key_indexes (Cursor.schema right) right_keys) in
  let lg = { ts = [||]; len = 0 } and rg = { ts = [||]; len = 0 } in
  (* [rg] is the buffered right group when [len > 0]; [paired] is set
     while the pairing of [lg] with [rg] has output left to give *)
  let paired = ref false in
  (* right tuple's key vs the left tuple's *)
  let vs_left rt lt = compare_keys rt rs.keys lt ls.keys 0 in
  (* Open the pairing of the next left group that matches a right group;
     false once the left input is exhausted. *)
  let rec open_next () =
    match ls.look with
    | None -> false
    | Some lt ->
        (* Drop right groups/tuples with keys before the left key, then
           buffer the next right group (whose key is >= the left key). *)
        let rec catch_up () =
          if rg.len > 0 && vs_left rg.ts.(0) lt >= 0 then ()
          else
            match rs.look with
            | Some rt when vs_left rt lt < 0 ->
                side_advance rs;
                catch_up ()
            | Some _ ->
                read_group rs rg;
                catch_up ()
            | None -> rg.len <- 0
        in
        catch_up ();
        if rg.len > 0 && vs_left rg.ts.(0) lt = 0 then begin
          read_group ls lg;
          start lg rg;
          true
        end
        else begin
          side_advance ls;
          open_next ()
        end
  in
  let out = Cursor.out () in
  let next_batch () =
    let rec go () =
      if Cursor.out_full out then ()
      else if !paired then begin
        if fill lg rg out then paired := false;
        go ()
      end
      else if open_next () then begin
        paired := true;
        go ()
      end
    in
    go ();
    Cursor.out_take out
  in
  Cursor.make ~schema
    ~init:(fun () ->
      side_init ls;
      side_init rs;
      lg.len <- 0;
      rg.len <- 0;
      paired := false;
      Cursor.out_clear out)
    ~next_batch

let is_true = function Ast.Lit (Tango_rel.Value.Bool true) -> true | _ -> false

(* The residual predicate of a key-matched pair, over the concatenated
   schema [schema], evaluated on one buffer reused for every pair (the
   left tuple's [nl] fields, then the right's); [None] when it is TRUE. *)
let pair_test schema pred nl : (Tuple.t -> Tuple.t -> bool) option =
  if is_true pred then None
  else begin
    let p = Scalar.compile_pred schema pred in
    let buf = Array.make (Schema.arity schema) Tango_rel.Value.Null in
    let nr = Array.length buf - nl in
    Some
      (fun lt rt ->
        Array.blit lt 0 buf 0 nl;
        Array.blit rt 0 buf nl nr;
        p buf)
  end

(** `MERGEJOIN^M`: equi-join of inputs sorted on [left_keys]/[right_keys];
    [pred] is an optional residual predicate over the concatenated schema.
    Output order: left join keys (runs of the left input's order). *)
let merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true)) ~left_keys
    ~right_keys left right : Cursor.t =
  let sl = Cursor.schema left in
  let out_schema = Schema.concat sl (Cursor.schema right) in
  let test = pair_test out_schema pred (Schema.arity sl) in
  (* the cross product's next pair *)
  let li = ref 0 and ri = ref 0 in
  let start _ _ =
    li := 0;
    ri := 0
  in
  let fill lg rg out =
    while (not (Cursor.out_full out)) && !li < lg.len do
      let lt = lg.ts.(!li) and rt = rg.ts.(!ri) in
      (match test with
      | None -> Cursor.out_add out (Tuple.concat lt rt)
      | Some test -> if test lt rt then Cursor.out_add out (Tuple.concat lt rt));
      incr ri;
      if !ri = rg.len then begin
        ri := 0;
        incr li
      end
    done;
    !li = lg.len
  in
  group_pairs ~schema:out_schema ~left ~right ~left_keys ~right_keys ~start
    ~fill

(* [a] when it holds at least [n] slots, else a fresh array of at least
   twice [a]'s length. *)
let ensure a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* A pair of group positions as one int, left position in the high
   bits, so codes order as (left, right) pairs do. *)
let right_bits = 31
let right_mask = (1 lsl right_bits) - 1

(** `TJOIN^M`: temporal equi-join (overlap implicit) of inputs sorted on the
    join keys. *)
let temporal_merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true))
    ~left_keys ~right_keys left right : Cursor.t =
  let sl = Cursor.schema left and sr = Cursor.schema right in
  let test = pair_test (Schema.concat sl sr) pred (Schema.arity sl) in
  let period_idx s =
    match Op.period_attrs s with
    | Some (a1, a2) -> (Schema.index s a1, Schema.index s a2)
    | None -> Op.ill_formed "temporal join argument must be temporal"
  in
  let l1, l2 = period_idx sl and r1, r2 = period_idx sr in
  let keep_l = Op.non_period_attrs sl and keep_r = Op.non_period_attrs sr in
  let out_schema =
    let keep = List.map (fun (a : Schema.attribute) -> (a.name, a.dtype)) in
    Schema.make
      (keep keep_l @ keep keep_r
      @ [ ("T1", Tango_rel.Value.TDate); ("T2", Tango_rel.Value.TDate) ])
  in
  let keep_idx s attrs =
    Array.of_list
      (List.map (fun (a : Schema.attribute) -> Schema.index s a.name) attrs)
  in
  let kl = keep_idx sl keep_l and kr = keep_idx sr keep_r in
  let nl = Array.length kl and nr = Array.length kr in
  (* an input's endpoint stands for the output's when it is already the
     date value the output would hold *)
  let date_of src t =
    match src with
    | Tango_rel.Value.Date d when d = t -> src
    | _ -> Tango_rel.Value.Date t
  in
  (* Per group pair, all reused: each tuple's period ends by group
     position ([lb]/[le], [rb]/[re]); the positions of the tuples with a
     non-empty period in [T1] order ([lord], [rord]); the joining pairs,
     coded, in [pairs.(0 .. npairs-1)], with [pos] the next one to
     emit. *)
  let lb = ref [||] and le = ref [||] and rb = ref [||] and re = ref [||] in
  let lord = ref [||] and rord = ref [||] in
  let pairs = ref [||] and spare = ref [||] and counts = ref [||] in
  let npairs = ref 0 and pos = ref 0 in
  (* Read [g]'s period ends into [b]/[e] and the positions of its
     non-empty periods, in [T1] order, into [ord]; returns their number. *)
  let periods (g : group) i1 i2 b e ord =
    b := ensure !b g.len;
    e := ensure !e g.len;
    ord := ensure !ord g.len;
    let b = !b and e = !e and ord = !ord in
    let n = ref 0 and in_order = ref true in
    for k = 0 to g.len - 1 do
      let t = g.ts.(k) in
      let s = Chronon.of_value t.(i1) and f = Chronon.of_value t.(i2) in
      b.(k) <- s;
      e.(k) <- f;
      if s < f then begin
        if !n > 0 && b.(ord.(!n - 1)) > s then in_order := false;
        ord.(!n) <- k;
        incr n
      end
    done;
    if not !in_order then begin
      let sorted = Array.sub ord 0 !n in
      Array.stable_sort (fun x y -> Int.compare b.(x) b.(y)) sorted;
      Array.blit sorted 0 ord 0 !n
    end;
    !n
  in
  (* Stable counting sort of the codes [src.(0 .. n-1)] into [dst] on
     their left position ([by_left]) or right position, below [keys]. *)
  let counting_pass src dst n keys ~by_left =
    let key c = if by_left then c lsr right_bits else c land right_mask in
    counts := ensure !counts (keys + 1);
    let cnt = !counts in
    Array.fill cnt 0 (keys + 1) 0;
    for p = 0 to n - 1 do
      let k = key src.(p) + 1 in
      cnt.(k) <- cnt.(k) + 1
    done;
    for k = 1 to keys do
      cnt.(k) <- cnt.(k) + cnt.(k - 1)
    done;
    for p = 0 to n - 1 do
      let c = src.(p) in
      let k = key c in
      dst.(cnt.(k)) <- c;
      cnt.(k) <- cnt.(k) + 1
    done
  in
  let start (lg : group) (rg : group) =
    let nlv = periods lg l1 l2 lb le lord in
    let nrv = periods rg r1 r2 rb re rord in
    let lb = !lb and le = !le and rb = !rb and re = !re in
    let lord = !lord and rord = !rord in
    npairs := 0;
    pos := 0;
    let ascending = ref true in
    let add li ri =
      if match test with None -> true | Some test -> test lg.ts.(li) rg.ts.(ri)
      then begin
        let c = (li lsl right_bits) lor ri in
        if !npairs = Array.length !pairs then begin
          let bigger = Array.make (max 64 (2 * !npairs)) 0 in
          Array.blit !pairs 0 bigger 0 !npairs;
          pairs := bigger
        end;
        if !npairs > 0 && !pairs.(!npairs - 1) > c then ascending := false;
        !pairs.(!npairs) <- c;
        incr npairs
      end
    in
    (* The forward scan: the group whose next period starts first leads;
       its period joins every period of the other group from the other's
       next one on that starts before it ends.  Ties go to the right, so
       each overlapping pair is found exactly once. *)
    let i = ref 0 and j = ref 0 in
    while !i < nlv && !j < nrv do
      let li = lord.(!i) and ri = rord.(!j) in
      if lb.(li) < rb.(ri) then begin
        let ends = le.(li) in
        let k = ref !j in
        while !k < nrv && rb.(rord.(!k)) < ends do
          add li rord.(!k);
          incr k
        done;
        incr i
      end
      else begin
        let ends = re.(ri) in
        let k = ref !i in
        while !k < nlv && lb.(lord.(!k)) < ends do
          add lord.(!k) ri;
          incr k
        done;
        incr j
      end
    done;
    (* Back to nested-loop order: a stable pass on the right position,
       then one on the left. *)
    if not !ascending then begin
      let n = !npairs in
      spare := ensure !spare n;
      counting_pass !pairs !spare n rg.len ~by_left:false;
      counting_pass !spare !pairs n lg.len ~by_left:true
    end
  in
  let emit (lg : group) (rg : group) c =
    let li = c lsr right_bits and ri = c land right_mask in
    let lt = lg.ts.(li) and rt = rg.ts.(ri) in
    let a1 = !lb.(li) and a2 = !le.(li) and b1 = !rb.(ri) and b2 = !re.(ri) in
    let out = Array.make (nl + nr + 2) Tango_rel.Value.Null in
    for i = 0 to nl - 1 do
      out.(i) <- lt.(kl.(i))
    done;
    for i = 0 to nr - 1 do
      out.(nl + i) <- rt.(kr.(i))
    done;
    out.(nl + nr) <- date_of (if a1 >= b1 then lt.(l1) else rt.(r1)) (max a1 b1);
    out.(nl + nr + 1) <- date_of (if a2 <= b2 then lt.(l2) else rt.(r2)) (min a2 b2);
    out
  in
  let fill lg rg out =
    while (not (Cursor.out_full out)) && !pos < !npairs do
      Cursor.out_add out (emit lg rg !pairs.(!pos));
      incr pos
    done;
    !pos = !npairs
  in
  group_pairs ~schema:out_schema ~left ~right ~left_keys ~right_keys ~start
    ~fill
