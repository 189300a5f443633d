(** Middleware join algorithms: `MERGEJOIN^M` (regular join) and `TJOIN^M`
    (temporal join), both sort-merge over inputs sorted on the join
    attributes, as the paper implements them (Section 4.1, rules T2/T3).

    The temporal join concatenates the non-period attributes of both inputs
    and appends the period intersection as unqualified [T1]/[T2], matching
    {!Tango_algebra.Op.Temporal_join}'s schema. *)

open Tango_rel
open Tango_sql
open Tango_algebra
open Tango_temporal

type side_state = {
  cursor : Cursor.t;
  key : Tuple.t -> Tuple.t;  (* extract join key *)
  mutable reader : Cursor.reader;
  mutable look : Tuple.t option;  (* one-tuple lookahead *)
}

let make_side cursor key_idxs =
  {
    cursor;
    key = (fun t -> Array.of_list (List.map (fun i -> t.(i)) key_idxs));
    reader = Cursor.reader cursor;
    look = None;
  }

let side_init s =
  Cursor.init s.cursor;
  s.reader <- Cursor.reader s.cursor;
  s.look <- Cursor.read s.reader

let side_peek s = s.look
let side_advance s = s.look <- Cursor.read s.reader

(* Read the full run of tuples whose key equals the current lookahead's. *)
let side_read_group s =
  match s.look with
  | None -> None
  | Some first ->
      let k = s.key first in
      let group = ref [ first ] in
      side_advance s;
      let rec go () =
        match s.look with
        | Some t when Tuple.compare (s.key t) k = 0 ->
            group := t :: !group;
            side_advance s;
            go ()
        | _ -> ()
      in
      go ();
      Some (k, List.rev !group)

let key_indexes schema attrs = List.map (Schema.index schema) attrs

(* Shared sort-merge skeleton: [emit lt rt] produces an output tuple option
   for a key-matched pair.  Native batch producer: each left tuple whose key
   matches a buffered right group yields its surviving pairs as one batch. *)
let merge_skeleton ~schema ~left ~right ~left_keys ~right_keys ~emit :
    Cursor.t =
  let ls = make_side left (key_indexes (Cursor.schema left) left_keys) in
  let rs = make_side right (key_indexes (Cursor.schema right) right_keys) in
  let right_group : (Tuple.t * Tuple.t list) option ref = ref None in
  let rec fill () =
    match side_peek ls with
    | None -> None
    | Some lt -> (
        let lk = ls.key lt in
        (* Drop right groups/tuples with keys before the left key, then
           buffer the next right group (whose key is >= lk). *)
        let rec catch_up () =
          match !right_group with
          | Some (gk, _) when Tuple.compare gk lk >= 0 -> ()
          | _ -> (
              match side_peek rs with
              | Some rt when Tuple.compare (rs.key rt) lk < 0 ->
                  side_advance rs;
                  catch_up ()
              | Some _ ->
                  right_group := side_read_group rs;
                  catch_up ()
              | None -> right_group := None)
        in
        catch_up ();
        match !right_group with
        | Some (gk, group) when Tuple.compare gk lk = 0 -> (
            side_advance ls;
            match List.filter_map (fun rt -> emit lt rt) group with
            | [] -> fill ()
            | out -> Some (Array.of_list out))
        | _ ->
            side_advance ls;
            fill ())
  in
  Cursor.make ~schema
    ~init:(fun () ->
      side_init ls;
      side_init rs;
      right_group := None)
    ~next_batch:fill

(** `MERGEJOIN^M`: equi-join of inputs sorted on [left_keys]/[right_keys];
    [pred] is an optional residual predicate over the concatenated schema.
    Output order: left join keys (runs of the left input's order). *)
let merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true)) ~left_keys
    ~right_keys left right : Cursor.t =
  let out_schema = Schema.concat (Cursor.schema left) (Cursor.schema right) in
  let p = Scalar.compile_pred out_schema pred in
  merge_skeleton ~schema:out_schema ~left ~right ~left_keys ~right_keys
    ~emit:(fun lt rt ->
      let t = Tuple.concat lt rt in
      if p t then Some t else None)

(** `TJOIN^M`: temporal equi-join (overlap implicit) of inputs sorted on the
    join keys. *)
let temporal_merge_join ?(pred = Ast.Lit (Tango_rel.Value.Bool true))
    ~left_keys ~right_keys left right : Cursor.t =
  let sl = Cursor.schema left and sr = Cursor.schema right in
  let concat_schema = Schema.concat sl sr in
  let p = Scalar.compile_pred concat_schema pred in
  let out_schema =
    let keep s =
      List.map
        (fun (a : Schema.attribute) -> (a.name, a.dtype))
        (Op.non_period_attrs s)
    in
    Schema.make
      (keep sl @ keep sr
      @ [ ("T1", Tango_rel.Value.TDate); ("T2", Tango_rel.Value.TDate) ])
  in
  let period_idx s =
    match Op.period_attrs s with
    | Some (a1, a2) -> (Schema.index s a1, Schema.index s a2)
    | None -> Op.ill_formed "temporal join argument must be temporal"
  in
  let l1, l2 = period_idx sl and r1, r2 = period_idx sr in
  let keep_idx s =
    List.map
      (fun (a : Schema.attribute) -> Schema.index s a.name)
      (Op.non_period_attrs s)
  in
  let kl = keep_idx sl and kr = keep_idx sr in
  let emit lt rt =
    let a1 = Chronon.of_value lt.(l1)
    and a2 = Chronon.of_value lt.(l2)
    and b1 = Chronon.of_value rt.(r1)
    and b2 = Chronon.of_value rt.(r2) in
    let t1 = max a1 b1 and t2 = min a2 b2 in
    if t1 < t2 && p (Tuple.concat lt rt) then begin
      let vals =
        List.map (fun i -> lt.(i)) kl
        @ List.map (fun i -> rt.(i)) kr
        @ [ Tango_rel.Value.Date t1; Tango_rel.Value.Date t2 ]
      in
      Some (Tuple.of_list vals)
    end
    else None
  in
  merge_skeleton ~schema:out_schema ~left ~right ~left_keys ~right_keys
    ~emit
