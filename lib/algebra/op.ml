(** The logical temporal algebra.

    Operator trees describe *what* to compute; *where* each part runs is
    expressed by the two transfer operators ([To_mw] = the paper's [T^M],
    [To_db] = [T^D]).  An operator's result is DBMS-resident or
    middleware-resident depending on the transfers below it; the initial
    plan produced from a query assigns everything to the DBMS and puts a
    single [To_mw] on top (paper Section 2.1).

    Temporal relations carry their valid-time period in two attributes with
    base names [T1] and [T2] (closed-open).  Temporal operators locate them
    by base name. *)

open Tango_rel
open Tango_sql

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(** Where a relation resides. *)
type location = Db | Mw

(** One aggregate of a temporal aggregation: function, argument attribute
    ([None] for [COUNT(STAR)]), and output attribute name. *)
type agg = { fn : Ast.aggfun; arg : string option; out : string }

type t =
  | Scan of { table : string; alias : string option; schema : Schema.t }
      (** base relation in the DBMS; [schema] is the base (unqualified)
          schema — the node's output schema is qualified by [alias] or
          [table] *)
  | Select of { pred : Ast.expr; arg : t }  (** σ *)
  | Project of { items : (Ast.expr * string) list; arg : t }
      (** generalized π: expressions with output names *)
  | Sort of { order : Order.t; arg : t }
  | Product of { left : t; right : t }  (** Cartesian × *)
  | Join of { pred : Ast.expr; left : t; right : t }  (** ⋈ *)
  | Temporal_join of { pred : Ast.expr; left : t; right : t }
      (** ⋈ᵀ: [pred] plus implicit period overlap; the result period is the
          intersection, exposed as unqualified [T1]/[T2] *)
  | Temporal_aggregate of { group_by : string list; aggs : agg list; arg : t }
      (** ξᵀ over constant intervals *)
  | Dup_elim of t  (** duplicate elimination *)
  | Coalesce of t
      (** coalesce periods of value-equivalent tuples (paper Section 7
          extension) *)
  | Difference of { left : t; right : t }  (** multiset difference *)
  | To_mw of t  (** T^M: DBMS → middleware *)
  | To_db of t  (** T^D: middleware → DBMS *)

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                    *)
(* ------------------------------------------------------------------ *)

let children = function
  | Scan _ -> []
  | Select { arg; _ } | Project { arg; _ } | Sort { arg; _ }
  | Temporal_aggregate { arg; _ } | Dup_elim arg | Coalesce arg | To_mw arg
  | To_db arg ->
      [ arg ]
  | Product { left; right } | Join { left; right; _ }
  | Temporal_join { left; right; _ } | Difference { left; right } ->
      [ left; right ]

(* ------------------------------------------------------------------ *)
(* Schema inference                                                     *)
(* ------------------------------------------------------------------ *)

(** Find the period attributes (base names [T1]/[T2]) of a schema. *)
let period_attrs (s : Schema.t) : (string * string) option =
  let find base =
    Array.find_opt (fun a -> Schema.has_base_name a.Schema.name base) s
  in
  match (find "T1", find "T2") with
  | Some a1, Some a2 -> Some (a1.Schema.name, a2.Schema.name)
  | _ -> None

let is_temporal (s : Schema.t) = period_attrs s <> None

let non_period_attrs (s : Schema.t) =
  match period_attrs s with
  | None -> Schema.attributes s
  | Some (t1, t2) ->
      List.filter
        (fun a ->
          not (String.equal a.Schema.name t1 || String.equal a.Schema.name t2))
        (Schema.attributes s)

let agg_out_dtype (schema : Schema.t) (a : agg) : Value.dtype =
  match (a.fn, a.arg) with
  | (Ast.Count_star | Ast.Count), _ -> Value.TInt
  | Ast.Avg, _ -> Value.TFloat
  | (Ast.Sum | Ast.Min | Ast.Max), Some attr -> Schema.dtype_of schema attr
  | (Ast.Sum | Ast.Min | Ast.Max), None ->
      ill_formed "aggregate %s needs an argument" (Ast.aggfun_name a.fn)

(** One level of schema inference: the output schema of [op]'s top
    operator given its arguments' schemas, in {!children} order ([op]'s own
    arguments are not looked at).  Raises {!Ill_formed} when attribute
    references do not resolve. *)
let schema_step (op : t) (args : Schema.t list) : Schema.t =
  let arg () = match args with [ s ] -> s | _ -> invalid_arg "Op.schema_step" in
  let args2 () =
    match args with [ l; r ] -> (l, r) | _ -> invalid_arg "Op.schema_step"
  in
  match op with
  | Scan { table; alias; schema = s } ->
      Schema.qualify (Option.value alias ~default:table) s
  | Select { pred; _ } ->
      let s = arg () in
      if not (Scalar.covers s pred) then
        ill_formed "selection predicate %s does not resolve"
          (Scalar.to_string pred);
      s
  | Project { items; _ } ->
      let s = arg () in
      Schema.make
        (List.map
           (fun (e, name) ->
             if not (Scalar.covers s e) then
               ill_formed "projection %s does not resolve" (Scalar.to_string e);
             (name, Scalar.dtype s e))
           items)
  | Sort { order; _ } ->
      let s = arg () in
      List.iter
        (fun k ->
          if not (Schema.mem s k.Order.attr) then
            ill_formed "sort attribute %s does not resolve" k.Order.attr)
        order;
      s
  | Product _ | Join _ ->
      let sl, sr = args2 () in
      Schema.concat sl sr
  | Temporal_join { pred; _ } ->
      let sl, sr = args2 () in
      let () =
        match (period_attrs sl, period_attrs sr) with
        | Some _, Some _ -> ()
        | _ -> ill_formed "temporal join arguments must both be temporal"
      in
      let keep side =
        List.map (fun (a : Schema.attribute) -> (a.name, a.dtype)) (non_period_attrs side)
      in
      let out =
        Schema.make
          (keep sl @ keep sr @ [ ("T1", Value.TDate); ("T2", Value.TDate) ])
      in
      if not (Scalar.covers (Schema.concat sl sr) pred) then
        ill_formed "temporal join predicate %s does not resolve"
          (Scalar.to_string pred);
      out
  | Temporal_aggregate { group_by; aggs; _ } ->
      let s = arg () in
      if period_attrs s = None then
        ill_formed "temporal aggregation argument must be temporal";
      let groups =
        List.map
          (fun g ->
            if not (Schema.mem s g) then
              ill_formed "grouping attribute %s does not resolve" g;
            (g, Schema.dtype_of s g))
          group_by
      in
      Schema.make
        (groups
        @ [ ("T1", Value.TDate); ("T2", Value.TDate) ]
        @ List.map (fun a -> (a.out, agg_out_dtype s a)) aggs)
  | Dup_elim _ | Coalesce _ | To_mw _ | To_db _ -> arg ()
  | Difference _ ->
      let sl, sr = args2 () in
      if not (Schema.union_compatible sl sr) then
        ill_formed "difference arguments are not union-compatible";
      sl

(* ------------------------------------------------------------------ *)
(* Location inference                                                   *)
(* ------------------------------------------------------------------ *)

(** One level of location inference: where [op]'s top operator leaves its
    result given its arguments' locations, in {!children} order.  Raises
    {!Ill_formed} when a binary operator mixes locations. *)
let location_step (op : t) (args : location list) : location =
  match (op, args) with
  | Scan _, _ | To_db _, _ -> Db
  | To_mw _, _ -> Mw
  | _, [ l ] -> l
  | _, [ l; r ] ->
      if l <> r then
        ill_formed "binary operator with arguments in different locations";
      l
  | _ -> invalid_arg "Op.location_step"

(** Output schema of an operator tree.  Raises {!Ill_formed} when attribute
    references do not resolve. *)
let rec schema (op : t) : Schema.t =
  schema_step op (List.map schema (children op))

(** Residence of an operator's result. *)
let rec location (op : t) : location =
  location_step op (List.map location (children op))

(** Validate a whole tree: schemas resolve, binary locations agree, and
    transfers alternate sensibly ([To_mw] takes a DBMS-resident argument,
    [To_db] a middleware-resident one).  Each check is one bottom-up pass
    and the checks run in that order, so the first error reported is the
    first unresolved schema in post-order, else the first mixed location
    in post-order, else the first misplaced transfer in pre-order. *)
let validate (op : t) : unit =
  ignore (schema op);
  (* Locations bottom-up, each subtree also reporting its first misplaced
     transfer in pre-order (raised only once every location resolved). *)
  let rec go op : location * string option =
    let args = List.map go (children op) in
    let loc = location_step op (List.map fst args) in
    let own =
      match (op, args) with
      | To_mw _, [ (Mw, _) ] -> Some "T^M over a middleware relation"
      | To_db _, [ (Db, _) ] -> Some "T^D over a DBMS relation"
      | _ -> None
    in
    (loc, match own with Some _ -> own | None -> List.find_map snd args)
  in
  match go op with _, Some msg -> raise (Ill_formed msg) | _, None -> ()

(* ------------------------------------------------------------------ *)
(* Rebuilding                                                           *)
(* ------------------------------------------------------------------ *)

let with_children op args =
  match (op, args) with
  | Scan _, [] -> op
  | Select s, [ a ] -> Select { s with arg = a }
  | Project p, [ a ] -> Project { p with arg = a }
  | Sort s, [ a ] -> Sort { s with arg = a }
  | Temporal_aggregate g, [ a ] -> Temporal_aggregate { g with arg = a }
  | Dup_elim _, [ a ] -> Dup_elim a
  | Coalesce _, [ a ] -> Coalesce a
  | To_mw _, [ a ] -> To_mw a
  | To_db _, [ a ] -> To_db a
  | Product _, [ l; r ] -> Product { left = l; right = r }
  | Join j, [ l; r ] -> Join { j with left = l; right = r }
  | Temporal_join j, [ l; r ] -> Temporal_join { j with left = l; right = r }
  | Difference _, [ l; r ] -> Difference { left = l; right = r }
  | _ -> invalid_arg "Op.with_children: arity mismatch"

let rec size (op : t) = 1 + List.fold_left (fun n c -> n + size c) 0 (children op)

(** Rewrite the top operator's own scalar expressions with [f] (predicates
    and projection items; grouping/aggregate/sort attributes are names,
    not expressions, and pass through), leaving its arguments as they
    are. *)
let map_own_exprs f (op : t) : t =
  match op with
  | Select s -> Select { s with pred = f s.pred }
  | Project p ->
      Project { p with items = List.map (fun (e, n) -> (f e, n)) p.items }
  | Join j -> Join { j with pred = f j.pred }
  | Temporal_join j -> Temporal_join { j with pred = f j.pred }
  | Scan _ | Sort _ | Product _ | Temporal_aggregate _ | Dup_elim _
  | Coalesce _ | Difference _ | To_mw _ | To_db _ ->
      op

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                      *)
(* ------------------------------------------------------------------ *)

let op_name = function
  | Scan { table; alias; _ } ->
      Printf.sprintf "SCAN(%s%s)" table
        (match alias with Some a -> " " ^ a | None -> "")
  | Select { pred; _ } -> Printf.sprintf "SELECT[%s]" (Scalar.to_string pred)
  | Project { items; _ } ->
      Printf.sprintf "PROJECT[%s]"
        (String.concat ", "
           (List.map
              (fun (e, n) ->
                let s = Scalar.to_string e in
                if String.equal s n then s else s ^ " AS " ^ n)
              items))
  | Sort { order; _ } -> Printf.sprintf "SORT[%s]" (Order.to_string order)
  | Product _ -> "PRODUCT"
  | Join { pred; _ } -> Printf.sprintf "JOIN[%s]" (Scalar.to_string pred)
  | Temporal_join { pred; _ } ->
      Printf.sprintf "TJOIN[%s]" (Scalar.to_string pred)
  | Temporal_aggregate { group_by; aggs; _ } ->
      Printf.sprintf "TAGGR[%s; %s]"
        (String.concat ", " group_by)
        (String.concat ", "
           (List.map
              (fun a ->
                Printf.sprintf "%s(%s) AS %s" (Ast.aggfun_name a.fn)
                  (Option.value a.arg ~default:"*")
                  a.out)
              aggs))
  | Dup_elim _ -> "DUPELIM"
  | Coalesce _ -> "COALESCE"
  | Difference _ -> "DIFFERENCE"
  | To_mw _ -> "T^M"
  | To_db _ -> "T^D"

let rec pp ?(indent = 0) ppf op =
  Fmt.pf ppf "%s%s@." (String.make indent ' ') (op_name op);
  List.iter (pp ~indent:(indent + 2) ppf) (children op)

let to_string op = Fmt.str "%a" (pp ~indent:0) op

(* Convenience constructors *)

let scan ?alias table schema_ = Scan { table; alias; schema = schema_ }
let select pred arg = Select { pred; arg }
let project items arg = Project { items; arg }

(** Projection onto named attributes (identity expressions). *)
let project_attrs names arg =
  Project
    {
      items =
        List.map (fun n -> (Ast.Col (None, n), Schema.base_name n)) names;
      arg;
    }

let sort order arg = Sort { order; arg }
let join pred left right = Join { pred; left; right }
let temporal_join pred left right = Temporal_join { pred; left; right }

let temporal_aggregate group_by aggs arg =
  Temporal_aggregate { group_by; aggs; arg }

let count_star out = { fn = Ast.Count_star; arg = None; out }
let agg fn arg out = { fn; arg = Some arg; out }
let to_mw arg = To_mw arg
let to_db arg = To_db arg
