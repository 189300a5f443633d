(** Closed-open time periods [\[t1, t2)], the paper's representation for the
    T1/T2 attribute pair.  A period is valid when [t1 < t2]; the empty period
    is not representable (operations that would produce one return
    [None]). *)

type t = { t1 : Chronon.t; t2 : Chronon.t }

let make t1 t2 =
  if t1 >= t2 then
    invalid_arg
      (Printf.sprintf "Period.make: empty period [%s, %s)"
         (Chronon.to_string t1) (Chronon.to_string t2));
  { t1; t2 }

let make_opt t1 t2 = if t1 < t2 then Some { t1; t2 } else None

let t1 p = p.t1
let t2 p = p.t2

(** Number of chronons covered. *)
let duration p = p.t2 - p.t1

let equal a b = a.t1 = b.t1 && a.t2 = b.t2

let compare a b =
  match Chronon.compare a.t1 b.t1 with
  | 0 -> Chronon.compare a.t2 b.t2
  | c -> c

(** [overlaps a b]: the periods share at least one chronon —
    [a.t1 < b.t2 && a.t2 > b.t1], the predicate of the paper's temporal
    join. *)
let overlaps a b = a.t1 < b.t2 && a.t2 > b.t1

(** [contains p c]: chronon [c] lies within [p] (timeslice predicate
    [t1 <= c && t2 > c]). *)
let contains p (c : Chronon.t) = p.t1 <= c && p.t2 > c

(** [intersect a b]: overlap of the two periods, the result period of a
    temporal join ([GREATEST(t1s), LEAST(t2s)]). *)
let intersect a b =
  make_opt (max a.t1 b.t1) (min a.t2 b.t2)

(** [adjacent a b]: periods meet without overlapping. *)
let adjacent a b = a.t2 = b.t1 || b.t2 = a.t1

let pp ppf p =
  Fmt.pf ppf "[%a, %a)" Chronon.pp p.t1 Chronon.pp p.t2

let to_string p = Fmt.str "%a" pp p

(** [coalesce periods]: minimal set of maximal periods covering the same
    chronons (value-equivalent tuples are assumed).  Input in any order;
    output sorted by start time. *)
let coalesce periods =
  let sorted = List.sort compare periods in
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest -> (
        match acc with
        | prev :: acc' when overlaps prev p || adjacent prev p ->
            go ({ t1 = prev.t1; t2 = max prev.t2 p.t2 } :: acc') rest
        | _ -> go (p :: acc) rest)
  in
  go [] sorted

(** [constant_intervals periods]: split the covered timeline into the maximal
    intervals over which the set of covering periods is constant.  These are
    the "constant periods" underlying temporal aggregation: within each
    returned period, the count of overlapping input periods does not change.
    Returns periods with their cover counts, sorted by start, covering only
    instants where at least one input period is active. *)
let constant_intervals periods =
  match periods with
  | [] -> []
  | _ ->
      (* Sweep over the sorted multiset of endpoints. *)
      let points =
        List.sort_uniq Chronon.compare
          (List.concat_map (fun p -> [ p.t1; p.t2 ]) periods)
      in
      let rec windows = function
        | a :: (b :: _ as rest) -> (a, b) :: windows rest
        | _ -> []
      in
      List.filter_map
        (fun (a, b) ->
          let n =
            List.length
              (List.filter (fun p -> p.t1 <= a && p.t2 >= b) periods)
          in
          if n > 0 then Some ({ t1 = a; t2 = b }, n) else None)
        (windows points)

(** Total covered chronons of a period list (after coalescing). *)
let covered periods =
  List.fold_left (fun acc p -> acc + duration p) 0 (coalesce periods)
