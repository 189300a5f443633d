(** The temporal-SQL front end: parses a VALIDTIME SQL subset (the parser
    module the paper left unimplemented) and compiles it to an initial
    algebraic query plan that assigns all processing to the DBMS, with a
    single [T^M] on top (paper Section 2.1).

    Semantics of [VALIDTIME SELECT] (sequenced valid time):
    - every FROM source must be temporal (carry T1/T2);
    - multiple sources combine with temporal joins: join predicates come
      from WHERE, and the result period is the intersection of the operand
      periods;
    - GROUP BY with aggregates denotes temporal aggregation over constant
      intervals;
    - the result is temporal: [T1]/[T2] are part of the output (implicitly
      appended when not listed).

    A SELECT without [VALIDTIME] is a regular query (scans, σ, π, ⋈, sort)
    evaluated with ordinary SQL semantics. *)

open Tango_rel
open Tango_sql
open Tango_algebra

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let col_full q c = match q with None -> c | Some q -> q ^ "." ^ c

(* The compiler builds its trees bottom-up and reads the schemas of the
   growing parts: each operator travels with its schema, derived one
   level from its arguments' and forced where the compiler reads it, so
   each is derived once (and fails where [Op.schema] would). *)
let with_schema (op : Op.t) (args : Schema.t Lazy.t list) =
  (op, lazy (Op.schema_step op (List.map Lazy.force args)))

(* ------------------------------------------------------------------ *)
(* FROM sources                                                          *)
(* ------------------------------------------------------------------ *)

(* Compile one FROM source to an operator exposing alias-qualified
   attributes. *)
let rec compile_source ~lookup (tref : Ast.table_ref) :
    Op.t * Schema.t Lazy.t =
  match tref with
  | Ast.Table (name, alias) -> with_schema (Op.scan ?alias name (lookup name)) []
  | Ast.Derived (q, alias) ->
      let sub, sub_s = compile_query ~lookup q in
      let s = Lazy.force sub_s in
      (* Re-qualify the derived table's outputs under its alias. *)
      let items =
        List.map
          (fun (a : Schema.attribute) ->
            ( Ast.Col (None, a.Schema.name),
              alias ^ "." ^ Schema.base_name a.Schema.name ))
          (Schema.attributes s)
      in
      with_schema (Op.project items sub) [ sub_s ]

(* ------------------------------------------------------------------ *)
(* SELECT blocks                                                         *)
(* ------------------------------------------------------------------ *)

and compile_query ~lookup (q : Ast.query) : Op.t * Schema.t Lazy.t =
  match q with
  | Ast.Select s -> compile_select ~lookup s
  | Ast.Union _ | Ast.Union_all _ ->
      unsupported "UNION is not supported in temporal SQL"

and compile_select ~lookup (s : Ast.select) : Op.t * Schema.t Lazy.t =
  if s.Ast.having <> None then unsupported "HAVING is not supported";
  let sources = List.map (compile_source ~lookup) s.Ast.from in
  if sources = [] then unsupported "FROM is required";
  if s.Ast.validtime then
    List.iter
      (fun (_, src_s) ->
        if Op.period_attrs (Lazy.force src_s) = None then
          unsupported "VALIDTIME requires temporal sources (T1/T2)")
      sources;
  let conjuncts = match s.Ast.where with None -> [] | Some w -> Ast.conjuncts w in
  (* Push single-source conjuncts below the joins. *)
  let conjuncts, sources =
    List.fold_left_map
      (fun remaining ((src, src_s) as source) ->
        let schema = Lazy.force src_s in
        let mine, rest =
          List.partition (fun c -> Scalar.covers schema c) remaining
        in
        match Ast.conj mine with
        | None -> (rest, source)
        | Some p -> (rest, with_schema (Op.select p src) [ src_s ]))
      conjuncts sources
  in
  (* Left-deep join tree; join predicates attach as they become
     applicable. *)
  let tree, leftover =
    match sources with
    | [ one ] -> (one, conjuncts)
    | first :: rest ->
        List.fold_left
          (fun ((acc, acc_s), remaining) (src, src_s) ->
            let joined_schema =
              Schema.concat (Lazy.force acc_s) (Lazy.force src_s)
            in
            let applicable, rest =
              List.partition (fun c -> Scalar.covers joined_schema c) remaining
            in
            let pred =
              Option.value (Ast.conj applicable)
                ~default:(Ast.Lit (Value.Bool true))
            in
            let j =
              if s.Ast.validtime then Op.temporal_join pred acc src
              else if applicable = [] then Op.Product { left = acc; right = src }
              else Op.join pred acc src
            in
            (with_schema j [ acc_s; src_s ], rest))
          (first, conjuncts) rest
    | [] -> assert false
  in
  let tree =
    match Ast.conj leftover with
    | None -> tree
    | Some p -> with_schema (Op.select p (fst tree)) [ snd tree ]
  in
  (* Aggregation? *)
  let has_agg =
    s.Ast.group_by <> []
    || List.exists
         (function Ast.Expr (e, _) -> Ast.contains_agg e | Ast.Star -> false)
         s.Ast.items
  in
  let body =
    if not has_agg then project_items ~validtime:s.Ast.validtime s.Ast.items tree
    else begin
      if not s.Ast.validtime then
        unsupported "GROUP BY without VALIDTIME: use the DBMS directly";
      compile_taggr s tree
    end
  in
  (* DISTINCT denotes duplicate elimination; VALIDTIME COALESCE coalesces
     value-equivalent result tuples (both below the final sort). *)
  let body =
    if s.Ast.distinct then with_schema (Op.Dup_elim (fst body)) [ snd body ]
    else body
  in
  let body =
    if s.Ast.coalesce then with_schema (Op.Coalesce (fst body)) [ snd body ]
    else body
  in
  (* ORDER BY: keys resolve against the projected output; a qualified
     source name (A.PosID) that was projected away falls back to its base
     name when that is unambiguous in the output. *)
  match s.Ast.order_by with
  | [] -> body
  | keys ->
      let body_schema = Lazy.force (snd body) in
      let resolve_key name =
        if Schema.mem body_schema name then name
        else begin
          let base = Schema.base_name name in
          if Schema.mem body_schema base then base
          else unsupported "ORDER BY attribute %s does not resolve" name
        end
      in
      let order =
        List.map
          (fun (e, asc) ->
            match e with
            | Ast.Col (q, c) ->
                { Order.attr = resolve_key (col_full q c);
                  dir = (if asc then Order.Asc else Order.Desc) }
            | _ -> unsupported "ORDER BY must use columns")
          keys
      in
      with_schema (Op.sort order (fst body)) [ snd body ]

and project_items ~validtime items (tree, tree_s) =
  let schema = Lazy.force tree_s in
  match items with
  | [ Ast.Star ] -> (tree, tree_s)
  | _ ->
      let explicit =
        List.concat_map
          (function
            | Ast.Star ->
                List.map
                  (fun (a : Schema.attribute) ->
                    (Ast.Col (None, a.Schema.name), a.Schema.name))
                  (Schema.attributes schema)
            | Ast.Expr (e, alias) ->
                let name =
                  match (alias, e) with
                  | Some a, _ -> a
                  | None, Ast.Col (q, c) -> Schema.base_name (col_full q c)
                  | None, _ -> unsupported "computed items need AS aliases"
                in
                [ (e, name) ])
          items
      in
      (* Sequenced semantics: the result of a VALIDTIME query is temporal,
         so the period attributes ride along even when not listed. *)
      let explicit =
        if not validtime then explicit
        else
          let listed base =
            List.exists (fun (_, n) -> String.equal (Schema.base_name n) base) explicit
          in
          let add base =
            match Op.period_attrs schema with
            | Some (t1, t2) ->
                let attr = if String.equal base "T1" then t1 else t2 in
                [ (Ast.Col (None, attr), base) ]
            | None -> []
          in
          explicit
          @ (if listed "T1" then [] else add "T1")
          @ if listed "T2" then [] else add "T2"
      in
      with_schema (Op.project explicit tree) [ tree_s ]

and compile_taggr (s : Ast.select) (tree, tree_s) =
  let schema = Lazy.force tree_s in
  let group_by =
    List.map
      (function
        | Ast.Col (q, c) ->
            let name = col_full q c in
            Schema.name_at schema (Schema.index schema name)
        | _ -> unsupported "GROUP BY must use columns")
      s.Ast.group_by
  in
  let aggs, out_names =
    List.fold_left
      (fun (aggs, outs) item ->
        match item with
        | Ast.Star -> unsupported "SELECT * with GROUP BY"
        | Ast.Expr (Ast.Agg (fn, arg), alias) ->
            let arg_attr =
              match arg with
              | None -> None
              | Some (Ast.Col (q, c)) ->
                  Some (Schema.name_at schema (Schema.index schema (col_full q c)))
              | Some _ -> unsupported "aggregate arguments must be columns"
            in
            let out =
              match alias with
              | Some a -> a
              | None -> Ast.aggfun_name fn
            in
            (aggs @ [ { Op.fn; arg = arg_attr; out } ], outs @ [ `Agg out ])
        | Ast.Expr (Ast.Col (q, c), alias) ->
            let name = col_full q c in
            let resolved = Schema.name_at schema (Schema.index schema name) in
            if
              not
                (List.exists
                   (fun g -> String.equal g resolved)
                   group_by
                || String.equal (Schema.base_name resolved) "T1"
                || String.equal (Schema.base_name resolved) "T2")
            then unsupported "non-aggregated item %s must be grouped" name;
            ( aggs,
              outs
              @ [ `Col (resolved, Option.value alias ~default:(Schema.base_name name)) ] )
        | Ast.Expr (_, _) ->
            unsupported "grouped items must be columns or aggregates")
      ([], []) s.Ast.items
  in
  let ((ag, ag_s) as aggregate) =
    with_schema (Op.temporal_aggregate group_by aggs tree) [ tree_s ]
  in
  (* Natural ξᵀ output: groups, T1, T2, aggs.  Add a projection when the
     SELECT list reorders or renames. *)
  let natural = Schema.names (Lazy.force ag_s) in
  let wanted =
    List.map (function `Agg o -> o | `Col (c, out) -> ignore c; out) out_names
  in
  let wanted_full =
    (* append implicit period attrs *)
    wanted
    @ (if List.exists (fun n -> String.equal (Schema.base_name n) "T1") wanted
       then []
       else [ "T1" ])
    @
    if List.exists (fun n -> String.equal (Schema.base_name n) "T2") wanted
    then []
    else [ "T2" ]
  in
  if
    List.length wanted_full = List.length natural
    && List.for_all2
         (fun w n -> String.equal (Schema.base_name w) (Schema.base_name n))
         wanted_full natural
  then aggregate
  else begin
    let items =
      List.map
        (fun (spec : [ `Agg of string | `Col of string * string ]) ->
          match spec with
          | `Agg out -> (Ast.Col (None, out), out)
          | `Col (resolved, out) ->
              (Ast.Col (None, Schema.base_name resolved), out))
        out_names
    in
    let items =
      items
      @ (if List.exists (fun (_, n) -> String.equal (Schema.base_name n) "T1") items
         then []
         else [ (Ast.Col (None, "T1"), "T1") ])
      @
      if List.exists (fun (_, n) -> String.equal (Schema.base_name n) "T2") items
      then []
      else [ (Ast.Col (None, "T2"), "T2") ]
    in
    with_schema (Op.project items ag) [ ag_s ]
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                          *)
(* ------------------------------------------------------------------ *)

(** Parse and compile temporal SQL to an algebra tree (no transfer). *)
let compile ~(lookup : string -> Schema.t) (sql : string) : Op.t =
  fst (compile_query ~lookup (Parser.query sql))

(** The initial query plan the optimizer receives: everything assigned to
    the DBMS, one [T^M] at the top. *)
let initial_plan ~lookup (sql : string) : Op.t =
  Op.to_mw (compile ~lookup sql)

(* The outermost ORDER BY of a parsed query. *)
let order_of_query (q : Ast.query) : Order.t =
  match q with
  | Ast.Select s ->
      List.map
        (fun (e, asc) ->
          match e with
          | Ast.Col (q, c) ->
              { Order.attr = col_full q c;
                dir = (if asc then Order.Asc else Order.Desc) }
          | _ -> unsupported "ORDER BY must use columns")
        s.Ast.order_by
  | _ -> []

(** Final order requested by the query (its outermost ORDER BY), used as the
    root's required physical property. *)
let required_order (sql : string) : Order.t = order_of_query (Parser.query sql)

(** {!initial_plan} and {!required_order} from a single parse. *)
let initial_plan_and_order ~lookup (sql : string) : Op.t * Order.t =
  let q = Parser.query sql in
  let plan = Op.to_mw (fst (compile_query ~lookup q)) in
  (plan, order_of_query q)
