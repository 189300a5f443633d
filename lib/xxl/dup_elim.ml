(** `DUPELIM^M` and `COALESCE^M` — the additional middleware algorithms the
    paper lists as future additions ("duplicate elimination, difference, and
    coalescing", Section 3.1).

    Both are one-pass algorithms over sorted input, and both are
    order-preserving:
    - duplicate elimination requires input sorted on all attributes and
      drops adjacent duplicates;
    - coalescing requires input sorted on the non-period attributes and
      [T1], and merges adjacent value-equivalent tuples whose periods
      overlap or meet.

    Each takes one input batch in and gives at most one output batch out;
    coalescing carries its open tuple across input batches, since it is
    open-ended until the next non-mergeable input arrives. *)

open Tango_rel
open Tango_algebra

(** Drop adjacent duplicates; input must be sorted on all attributes. *)
let dup_elim (arg : Cursor.t) : Cursor.t =
  let schema = Cursor.schema arg in
  let last = ref None in
  Cursor.make ~schema
    ~init:(fun () ->
      Cursor.init arg;
      last := None)
    ~next_batch:(fun () ->
      let rec go () =
        match Cursor.next_batch arg with
        | None -> None
        | Some b ->
            let out = ref [] in
            let n = ref 0 in
            Array.iter
              (fun t ->
                match !last with
                | Some prev when Tuple.equal prev t -> ()
                | _ ->
                    last := Some t;
                    out := t :: !out;
                    incr n)
              b;
            if !n = 0 then go ()
            else Some (Array.of_list (List.rev !out))
      in
      go ())

(** Multiset difference: left minus right, one occurrence removed per right
    tuple; order of the left input is preserved.  The right side is
    materialized at [init]. *)
let difference (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let schema = Cursor.schema left in
  let budget : (Value.t list, int) Hashtbl.t = Hashtbl.create 64 in
  let survives t =
    let k = Array.to_list t in
    match Hashtbl.find_opt budget k with
    | Some n when n > 0 ->
        Hashtbl.replace budget k (n - 1);
        false
    | _ -> true
  in
  Cursor.make ~schema
    ~init:(fun () ->
      Cursor.init left;
      Hashtbl.reset budget;
      Cursor.iter
        (fun t ->
          let k = Array.to_list t in
          Hashtbl.replace budget k
            (1 + Option.value ~default:0 (Hashtbl.find_opt budget k)))
        right)
    ~next_batch:(fun () -> Basic_ops.next_kept survives left)

(** Coalesce value-equivalent tuples; input must be sorted on the non-period
    attributes, then [T1]. *)
let coalesce (arg : Cursor.t) : Cursor.t =
  let schema = Cursor.schema arg in
  let t1_name, t2_name =
    match Op.period_attrs schema with
    | Some p -> p
    | None -> Op.ill_formed "COALESCE argument must be temporal"
  in
  let t1_idx = Schema.index schema t1_name
  and t2_idx = Schema.index schema t2_name in
  let nonperiod_idxs =
    List.map
      (fun (a : Schema.attribute) -> Schema.index schema a.name)
      (Op.non_period_attrs schema)
  in
  let same_value t1 t2 =
    List.for_all (fun i -> Value.equal t1.(i) t2.(i)) nonperiod_idxs
  in
  (* pending: the open coalesced tuple being extended *)
  let pending = ref None in
  (* Fold [t] into the open tuple; a closed tuple is consed onto [out]. *)
  let step out t =
    match !pending with
    | Some p
      when same_value p t && Value.to_int t.(t1_idx) <= Value.to_int p.(t2_idx)
      ->
        (* extend the open period *)
        if Value.compare t.(t2_idx) p.(t2_idx) > 0 then
          p.(t2_idx) <- t.(t2_idx);
        out
    | Some p ->
        pending := Some (Array.copy t);
        p :: out
    | None ->
        pending := Some (Array.copy t);
        out
  in
  Cursor.make ~schema
    ~init:(fun () ->
      Cursor.init arg;
      pending := None)
    ~next_batch:(fun () ->
      let rec go () =
        match Cursor.next_batch arg with
        | None ->
            let last = Option.map (fun p -> [| p |]) !pending in
            pending := None;
            last
        | Some b -> (
            match Array.fold_left step [] b with
            | [] -> go ()
            | out -> Some (Array.of_list (List.rev out)))
      in
      go ())
