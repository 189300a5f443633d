(** In-memory relations: a schema plus a sequence of tuples.

    Relations are *lists* in the sense of the paper's algebra: duplicates are
    retained and tuple order is significant (an order property may be
    attached).  Most operators in the middleware work on cursors
    ({!Tango_xxl}); this module is the materialized form used by tests, the
    workload generators, and small intermediate results. *)

type t = {
  schema : Schema.t;
  tuples : Tuple.t array;
  order : Order.t;  (** known sort order, [[]] when unknown *)
}

let make ?(order = []) schema tuples = { schema; tuples; order }

let of_list ?(order = []) schema tuples =
  { schema; tuples = Array.of_list tuples; order }

let schema r = r.schema
let tuples r = r.tuples
let order r = r.order
let cardinality r = Array.length r.tuples
let to_list r = Array.to_list r.tuples

(** Total size in bytes — the [size(r)] statistic of the cost formulas. *)
let byte_size r =
  Array.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 r.tuples

let avg_tuple_size r =
  let n = cardinality r in
  if n = 0 then 0.0 else float_of_int (byte_size r) /. float_of_int n

let iter f r = Array.iter f r.tuples
let fold f init r = Array.fold_left f init r.tuples

let column r name =
  let i = Schema.index r.schema name in
  Array.map (fun t -> t.(i)) r.tuples

(** Stable sort by [order]; records the resulting order property. *)
let sort order_ r =
  let cmp = Order.comparator order_ r.schema in
  let tuples = Array.copy r.tuples in
  (* Array.stable_sort preserves the relative order of equal tuples, which
     matters for list equivalence of the sort operator. *)
  Array.stable_sort cmp tuples;
  { r with tuples; order = order_ }

(* [pred] runs once per tuple; when it keeps everything the input array
   itself is returned. *)
let filter_tuples pred (ts : Tuple.t array) : Tuple.t array =
  let n = Array.length ts in
  let keep = Array.map pred ts in
  let kept = Array.fold_left (fun k b -> if b then k + 1 else k) 0 keep in
  if kept = n then ts
  else if kept = 0 then [||]
  else begin
    let out = Array.make kept ts.(0) in
    let j = ref 0 in
    Array.iteri
      (fun i t ->
        if keep.(i) then begin
          out.(!j) <- t;
          incr j
        end)
      ts;
    out
  end

(* Filtering preserves order. *)
let filter pred r =
  let tuples = filter_tuples pred r.tuples in
  if tuples == r.tuples then r else { r with tuples }

let project names r =
  let schema' = Schema.project r.schema names in
  let idxs = List.map (Schema.index r.schema) names in
  let proj t = Array.of_list (List.map (fun i -> t.(i)) idxs) in
  let order' =
    if List.for_all (fun k -> List.mem (Schema.base_name k.Order.attr)
                                (List.map Schema.base_name names)) r.order
    then r.order
    else []
  in
  { schema = schema'; tuples = Array.map proj r.tuples; order = order' }

(** Multiset equality: same tuples with the same multiplicities. *)
let equal_multiset a b =
  Schema.union_compatible a.schema b.schema
  && cardinality a = cardinality b
  &&
  let sa = Array.copy a.tuples and sb = Array.copy b.tuples in
  Array.stable_sort Tuple.compare sa;
  Array.stable_sort Tuple.compare sb;
  Array.for_all2 Tuple.equal sa sb

(** List equality: same tuples in the same positions. *)
let equal_list a b =
  Schema.union_compatible a.schema b.schema
  && cardinality a = cardinality b
  && Array.for_all2 Tuple.equal a.tuples b.tuples

let pp ppf r =
  let widths =
    Array.map (fun a -> String.length a.Schema.name) r.schema
  in
  Array.iter
    (fun t ->
      Array.iteri
        (fun i v ->
          widths.(i) <- max widths.(i) (String.length (Value.to_string v)))
        t)
    r.tuples;
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Fmt.pf ppf "%s@."
    (String.concat " | "
       (List.mapi
          (fun i a -> pad a.Schema.name widths.(i))
          (Array.to_list r.schema)));
  Array.iter
    (fun t ->
      Fmt.pf ppf "%s@."
        (String.concat " | "
           (List.mapi
              (fun i v -> pad (Value.to_string v) widths.(i))
              (Array.to_list t))))
    r.tuples
