(** Middleware join algorithms: `MERGEJOIN^M` (regular join) and `TJOIN^M`
    (temporal join), both sort-merge over inputs sorted on the join
    attributes, as the paper implements them (Section 4.1, rules T2/T3).

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

let side_peek s = s.look
let side_advance s = s.look <- read_keyed s

(* Read the full run of tuples whose key equals the current lookahead's;
   the run's first tuple stands for its key. *)
let side_read_group s =
  match s.look with
  | None -> None
  | Some first ->
      let group = ref [ first ] in
      side_advance s;
      let rec go () =
        match s.look with
        | Some t when compare_keys t s.keys first s.keys 0 = 0 ->
            group := t :: !group;
            side_advance s;
            go ()
        | _ -> ()
      in
      go ();
      Some (first, Array.of_list (List.rev !group))

let key_indexes schema attrs =
  Array.of_list (List.map (Schema.index schema) attrs)

(* What [emit] returns for a key-matched pair that yields no output. *)
let no_pair : Tuple.t = [||]

(* Shared sort-merge skeleton: [emit lt rt] builds the output tuple of a
   key-matched pair, or returns [no_pair].  Native batch producer: a batch
   is handed on only when it holds {!Cursor.default_batch_size} tuples or
   when the left input is exhausted; a left tuple's pairs with its right
   group may straddle two batches. *)
let merge_skeleton ~schema ~left ~right ~left_keys ~right_keys ~emit :
    Cursor.t =
  let ls = make_side left (key_indexes (Cursor.schema left) left_keys) in
  let rs = make_side right (key_indexes (Cursor.schema right) right_keys) in
  (* the buffered right group: its first tuple and all its tuples *)
  let right_group : (Tuple.t * Tuple.t array) option ref = ref None in
  (* the left tuple being paired with [right_group], and the index of its
     next right partner; [pending_group] is empty when no pairing is open *)
  let pending_left = ref no_pair in
  let pending_group = ref [||] in
  let pending_pos = ref 0 in
  (* right tuple's key vs the left tuple's *)
  let vs_left rt lt = compare_keys rt rs.keys lt ls.keys 0 in
  (* Open the pairing of the next left tuple that matches a right group;
     false once the left input is exhausted. *)
  let rec open_next () =
    match side_peek ls with
    | None -> false
    | Some lt -> (
        (* Drop right groups/tuples with keys before the left key, then
           buffer the next right group (whose key is >= the left key). *)
        let rec catch_up () =
          match !right_group with
          | Some (first, _) when vs_left first lt >= 0 -> ()
          | _ -> (
              match side_peek rs with
              | Some rt when vs_left rt lt < 0 ->
                  side_advance rs;
                  catch_up ()
              | Some _ ->
                  right_group := side_read_group rs;
                  catch_up ()
              | None -> right_group := None)
        in
        catch_up ();
        side_advance ls;
        match !right_group with
        | Some (first, group) when vs_left first lt = 0 ->
            pending_left := lt;
            pending_group := group;
            pending_pos := 0;
            true
        | _ -> open_next ())
  in
  let out = Cursor.out () in
  let next_batch () =
    let rec fill () =
      let group = !pending_group in
      if !pending_pos < Array.length group then begin
        let lt = !pending_left in
        while (not (Cursor.out_full out)) && !pending_pos < Array.length group do
          let t = emit lt group.(!pending_pos) in
          incr pending_pos;
          if t != no_pair then Cursor.out_add out t
        done;
        if not (Cursor.out_full out) then fill ()
      end
      else if open_next () then fill ()
    in
    fill ();
    Cursor.out_take out
  in
  Cursor.make ~schema
    ~init:(fun () ->
      side_init ls;
      side_init rs;
      right_group := None;
      pending_group := [||];
      Cursor.out_clear out)
    ~next_batch

let is_true = function Ast.Lit (Tango_rel.Value.Bool true) -> true | _ -> false

(** `MERGEJOIN^M`: equi-join of inputs sorted on [left_keys]/[right_keys];
    [pred] is an optional residual predicate over the concatenated schema.
    Output order: left join keys (runs of the left input's order). *)
let merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true)) ~left_keys
    ~right_keys left right : Cursor.t =
  let out_schema = Schema.concat (Cursor.schema left) (Cursor.schema right) in
  let emit =
    if is_true pred then Tuple.concat
    else
      let p = Scalar.compile_pred out_schema pred in
      fun lt rt ->
        let t = Tuple.concat lt rt in
        if p t then t else no_pair
  in
  merge_skeleton ~schema:out_schema ~left ~right ~left_keys ~right_keys ~emit

(** `TJOIN^M`: temporal equi-join (overlap implicit) of inputs sorted on the
    join keys. *)
let temporal_merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true))
    ~left_keys ~right_keys left right : Cursor.t =
  let sl = Cursor.schema left and sr = Cursor.schema right in
  let concat_schema = Schema.concat sl sr in
  let p = Scalar.compile_pred concat_schema pred in
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
  (* without a residual predicate the concatenated pair is never built *)
  let check = if is_true pred then fun _ _ -> true else fun lt rt -> p (Tuple.concat lt rt) in
  (* an input's endpoint stands for the output's when it is already the
     date value the output would hold *)
  let date_of src t =
    match src with
    | Tango_rel.Value.Date d when d = t -> src
    | _ -> Tango_rel.Value.Date t
  in
  let emit lt rt =
    let a1 = Chronon.of_value lt.(l1)
    and a2 = Chronon.of_value lt.(l2)
    and b1 = Chronon.of_value rt.(r1)
    and b2 = Chronon.of_value rt.(r2) in
    let t1 = max a1 b1 and t2 = min a2 b2 in
    if t1 < t2 && check lt rt then begin
      let out = Array.make (nl + nr + 2) Tango_rel.Value.Null in
      for i = 0 to nl - 1 do
        out.(i) <- lt.(kl.(i))
      done;
      for i = 0 to nr - 1 do
        out.(nl + i) <- rt.(kr.(i))
      done;
      out.(nl + nr) <- date_of (if a1 >= b1 then lt.(l1) else rt.(r1)) t1;
      out.(nl + nr + 1) <- date_of (if a2 <= b2 then lt.(l2) else rt.(r2)) t2;
      out
    end
    else no_pair
  in
  merge_skeleton ~schema:out_schema ~left ~right ~left_keys ~right_keys
    ~emit
