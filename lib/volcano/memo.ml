(** The Volcano optimizer's memo: equivalence classes of query
    subexpressions (paper Section 5.2).

    Each class stores a list of {e elements}; an element is an operator
    whose arguments are (ids of) other classes.  Transformation rules add
    elements to existing classes or merge two classes that are proved
    equivalent (e.g. rule T7, [T^M(T^D(r)) → r]).  Merging uses union-find;
    class ids must be resolved through {!find} before use.

    Each class also stores its logical properties — output schema and
    result location — derived once, when the class is created, from the
    creating element and its children's stored properties (one level of
    {!Op.schema_step} / {!Op.location_step}).  All elements of a class
    denote the same relation, so any element yields the same properties
    and merging two classes keeps the surviving root's.

    Elements are kept canonical in place: every child id an element holds
    is a union-find root.  A union rewrites only the elements that held the
    merged-away class, found through a per-class list of the classes that
    reference it, and looks for the classes the rewrite made equal among
    those elements alone.

    Every change to a class — gaining an element, or surviving a union —
    stamps it with the value of a change {!clock}, so a rule probe can
    tell whether anything it reads has changed since an earlier probe
    ({!changed_since}).

    The class/element counts the paper reports per query (e.g. "12
    equivalence classes with 29 class elements" for Query 1) are exposed by
    {!class_count} and {!element_count}. *)

open Tango_rel
open Tango_sql
open Tango_algebra

(** An operator with child classes — the memo's element shape.  Mirrors
    {!Op.t}. *)
type node =
  | N_scan of { table : string; alias : string option; schema : Schema.t }
  | N_select of { pred : Ast.expr; arg : int }
  | N_project of { items : (Ast.expr * string) list; arg : int }
  | N_sort of { order : Order.t; arg : int }
  | N_product of { left : int; right : int }
  | N_join of { pred : Ast.expr; left : int; right : int }
  | N_tjoin of { pred : Ast.expr; left : int; right : int }
  | N_taggr of { group_by : string list; aggs : Op.agg list; arg : int }
  | N_dupelim of int
  | N_coalesce of int
  | N_difference of { left : int; right : int }
  | N_tm of int
  | N_td of int

(** A class's logical properties; each is the value, or the exception its
    derivation raised (the class is ill-formed in that respect). *)
type props = {
  schema : (Schema.t, exn) result;
  location : (Op.location, exn) result;
}

(* Tables keyed by node.  Equality is the generic [compare]'s (as the
   polymorphic Hashtbl has it); the hash reads a few leading values only,
   enough to tell a node's operator, child ids and payload head apart, so
   hashing a projection does not walk its whole item list. *)
module Node_tbl = Hashtbl.Make (struct
  type t = node

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash_param 5 24
end)

(* Tables keyed by a projection's item list, by identity: a memo
   element's item list is never copied, so re-probing an element meets
   the same list again. *)
module Items_tbl = Hashtbl.Make (struct
  type t = (Ast.expr * string) list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  mutable parent : int array;  (** union-find *)
  mutable elements : (int * node) list array;
      (** per class, newest first, each with its element id; each node is
          canonical (its child ids are roots) *)
  mutable users : int list array;
      (** per class: the classes holding an element with it as a child,
          resolved through {!find} (may repeat) *)
  mutable props : props array;  (** per class; valid at roots *)
  mutable stamp : int array;
      (** per class: the clock value of its last change; valid at roots *)
  node_class : int Node_tbl.t;
      (** dedup: every canonical node in the memo -> a class holding it,
          resolved through {!find} *)
  mutable class_cnt : int;
  mutable element_cnt : int;
  mutable capacity : int;
  mutable clock : int;
  mutable props_replaced : int;
      (** clock value of the last union that replaced a class's properties
          with different ones *)
  item_indexes : (Ast.expr * string) Name_index.t Items_tbl.t;
      (** output-name index of each projection item list met by
          {!item_index} *)
}

let unset = { schema = Error Not_found; location = Error Not_found }

let create () =
  {
    parent = Array.init 64 Fun.id;
    elements = Array.make 64 [];
    users = Array.make 64 [];
    props = Array.make 64 unset;
    stamp = Array.make 64 0;
    node_class = Node_tbl.create 256;
    class_cnt = 0;
    element_cnt = 0;
    capacity = 64;
    clock = 0;
    props_replaced = -1;
    item_indexes = Items_tbl.create 16;
  }

let rec find m i =
  let p = m.parent.(i) in
  if p = i then i
  else begin
    let root = find m p in
    m.parent.(i) <- root;
    root
  end

(* Canonicalize a node's child class ids. *)
let canon m (n : node) : node =
  match n with
  | N_scan _ -> n
  | N_select s -> N_select { s with arg = find m s.arg }
  | N_project p -> N_project { p with arg = find m p.arg }
  | N_sort s -> N_sort { s with arg = find m s.arg }
  | N_product { left; right } ->
      N_product { left = find m left; right = find m right }
  | N_join j -> N_join { j with left = find m j.left; right = find m j.right }
  | N_tjoin j ->
      N_tjoin { j with left = find m j.left; right = find m j.right }
  | N_taggr a -> N_taggr { a with arg = find m a.arg }
  | N_dupelim c -> N_dupelim (find m c)
  | N_coalesce c -> N_coalesce (find m c)
  | N_difference { left; right } ->
      N_difference { left = find m left; right = find m right }
  | N_tm c -> N_tm (find m c)
  | N_td c -> N_td (find m c)

let grow m =
  if m.class_cnt >= m.capacity then begin
    let cap = 2 * m.capacity in
    let parent = Array.init cap (fun i -> if i < m.capacity then m.parent.(i) else i) in
    let elements = Array.make cap [] in
    Array.blit m.elements 0 elements 0 m.capacity;
    let users = Array.make cap [] in
    Array.blit m.users 0 users 0 m.capacity;
    let props = Array.make cap unset in
    Array.blit m.props 0 props 0 m.capacity;
    let stamp = Array.make cap 0 in
    Array.blit m.stamp 0 stamp 0 m.capacity;
    m.parent <- parent;
    m.elements <- elements;
    m.users <- users;
    m.props <- props;
    m.stamp <- stamp;
    m.capacity <- cap
  end

let new_class m =
  grow m;
  let id = m.class_cnt in
  m.class_cnt <- m.class_cnt + 1;
  id

(** Elements of a class with their ids (canonical, as stored). *)
let entries m i = m.elements.(find m i)

(** Elements of a class (canonical, as stored). *)
let elements m i = List.map snd m.elements.(find m i)

let clock m = m.clock

let item_index m items =
  match Items_tbl.find_opt m.item_indexes items with
  | Some idx -> idx
  | None ->
      let idx = Name_index.make (fun (_, out) -> Some out) items in
      Items_tbl.add m.item_indexes items idx;
      idx

(* Record a change to root class [c]. *)
let touch m c =
  m.clock <- m.clock + 1;
  m.stamp.(c) <- m.clock

let class_count m =
  (* live root classes *)
  let n = ref 0 in
  for i = 0 to m.class_cnt - 1 do
    if find m i = i then incr n
  done;
  !n

let element_count m = m.element_cnt

(** All live class ids. *)
let classes m =
  List.filter (fun i -> find m i = i) (List.init m.class_cnt Fun.id)

(** Child class ids of a node, in {!Op.children} order. *)
let children : node -> int list = function
  | N_scan _ -> []
  | N_select { arg; _ } | N_project { arg; _ } | N_sort { arg; _ }
  | N_taggr { arg; _ } | N_dupelim arg | N_coalesce arg | N_tm arg | N_td arg ->
      [ arg ]
  | N_product { left; right } | N_join { left; right; _ }
  | N_tjoin { left; right; _ } | N_difference { left; right } ->
      [ left; right ]

(** The operator tree of a node, with [sub] supplying each child's. *)
let op_of_node (sub : int -> Op.t) (n : node) : Op.t =
  match n with
  | N_scan { table; alias; schema } -> Op.Scan { table; alias; schema }
  | N_select { pred; arg } -> Op.Select { pred; arg = sub arg }
  | N_project { items; arg } -> Op.Project { items; arg = sub arg }
  | N_sort { order; arg } -> Op.Sort { order; arg = sub arg }
  | N_product { left; right } -> Op.Product { left = sub left; right = sub right }
  | N_join { pred; left; right } ->
      Op.Join { pred; left = sub left; right = sub right }
  | N_tjoin { pred; left; right } ->
      Op.Temporal_join { pred; left = sub left; right = sub right }
  | N_taggr { group_by; aggs; arg } ->
      Op.Temporal_aggregate { group_by; aggs; arg = sub arg }
  | N_dupelim c -> Op.Dup_elim (sub c)
  | N_coalesce c -> Op.Coalesce (sub c)
  | N_difference { left; right } ->
      Op.Difference { left = sub left; right = sub right }
  | N_tm c -> Op.To_mw (sub c)
  | N_td c -> Op.To_db (sub c)

(** Stored properties of a class. *)
let props m c = m.props.(find m c)

(** Whether something a rule probing [n] reads may have changed after clock
    value [t]: a child class gained an element or survived a union, or a
    union replaced some class's properties (which every class reference
    resolves through). *)
let changed_since m (n : node) t =
  m.props_replaced > t
  || List.exists (fun c -> m.stamp.(find m c) > t) (children n)

(* Stands in for every argument of the operator a one-level step looks
   at; the steps read only the top operator. *)
let hole = Op.Scan { table = ""; alias = None; schema = Schema.make [] }

(** The node's operator over placeholder arguments, for one-level steps. *)
let top_op (n : node) : Op.t = op_of_node (fun _ -> hole) n

let get = function Ok v -> v | Error e -> raise e

(** A node's properties, one level above its children's stored ones.  The
    first ill-formed child's error propagates; otherwise the step's own
    exception (an unresolved attribute, mixed locations) is the result. *)
let derive m (n : node) : props =
  let args = List.map (props m) (children n) in
  let op = top_op n in
  let step f prop =
    try Ok (f op (List.map (fun a -> get (prop a)) args)) with e -> Error e
  in
  {
    schema = step Op.schema_step (fun a -> a.schema);
    location = step Op.location_step (fun a -> a.location);
  }

(* Structural equality, or false where the values cannot be compared. *)
let same_props (a : props) b = try a = b with Invalid_argument _ -> false

(* Does node [n] hold class [c] as a child? *)
let mentions c = function
  | N_scan _ -> false
  | N_select { arg; _ } | N_project { arg; _ } | N_sort { arg; _ }
  | N_taggr { arg; _ } | N_dupelim arg | N_coalesce arg | N_tm arg | N_td arg ->
      arg = c
  | N_product { left; right } | N_join { left; right; _ }
  | N_tjoin { left; right; _ } | N_difference { left; right } ->
      left = c || right = c

(* Record class [c] as holding node [n]: as a user of [n]'s children. *)
let add_uses m c n =
  List.iter (fun ch -> m.users.(ch) <- c :: m.users.(ch)) (children n)

(* Merge root [other] into root [root] and re-canonicalize the elements
   that held [other].  Their old forms leave the dedup table; their new
   forms join [dirty] (the forms that may now occur in two classes), and
   the classes that may hold them join [suspects]: the rewritten
   elements' classes, and the class the table already has for a new
   form. *)
let merge m ~root ~other dirty suspects =
  m.parent.(other) <- root;
  m.elements.(root) <- m.elements.(other) @ m.elements.(root);
  m.elements.(other) <- [];
  let holders = m.users.(other) in
  m.users.(root) <- holders @ m.users.(root);
  m.users.(other) <- [];
  touch m root;
  if not (same_props m.props.(root) m.props.(other)) then
    m.props_replaced <- m.clock;
  let fresh = ref [] in
  List.iter
    (fun u ->
      m.elements.(u) <-
        List.map
          (fun ((id, n) as e) ->
            if not (mentions other n) then e
            else begin
              let n' = canon m n in
              Node_tbl.remove m.node_class n;
              Node_tbl.remove dirty n;
              fresh := n' :: !fresh;
              (id, n')
            end)
          m.elements.(u))
    (List.sort_uniq Int.compare (List.map (find m) holders));
  List.iter
    (fun n ->
      Node_tbl.replace dirty n ();
      (match Node_tbl.find_opt m.node_class n with
      | Some c -> suspects := c :: !suspects
      | None -> ()))
    !fresh;
  suspects := holders @ !suspects

(* Scan the suspect classes in id order, each one's elements in list
   order, for the dirty forms: record each form's first class in the dedup
   table, and return the last collision met (a form already seen in
   another class), as a scan of the whole memo would — only dirty forms
   can occur in two classes, and only suspect classes hold them. *)
let last_collision m dirty suspects =
  let first = Node_tbl.create 8 in
  let last = ref None in
  List.iter
    (fun i ->
      List.iter
        (fun (_, n) ->
          if Node_tbl.mem dirty n then
            match Node_tbl.find_opt first n with
            | Some j -> if j <> i then last := Some (i, j)
            | None -> Node_tbl.replace first n i)
        m.elements.(i))
    (List.sort_uniq Int.compare (List.map (find m) suspects));
  Node_tbl.iter (fun n i -> Node_tbl.replace m.node_class n i) first;
  !last

(** Merge two classes proved equivalent; returns the surviving root, which
    keeps its own properties (both classes denote the same relation).
    Merging may make nodes of two classes equal; those classes merge in
    turn, the last such pair a scan in class-id order meets first. *)
let union m a b =
  let ra = find m a and rb = find m b in
  if ra = rb then ra
  else begin
    let dirty = Node_tbl.create 8 and suspects = ref [] in
    let rec go ra rb =
      (* keep the smaller id as root for stable reporting *)
      let root, other = if ra < rb then (ra, rb) else (rb, ra) in
      merge m ~root ~other dirty suspects;
      match last_collision m dirty !suspects with
      | Some (i, j) -> go (find m i) (find m j)
      | None -> ()
    in
    go ra rb;
    find m ra
  end

(** [insert m node]: return the class holding [node], creating one if new. *)
let insert m (n : node) : int =
  let n = canon m n in
  match Node_tbl.find_opt m.node_class n with
  | Some c -> find m c
  | None ->
      let p = derive m n in
      let c = new_class m in
      m.elements.(c) <- [ (m.element_cnt, n) ];
      m.props.(c) <- p;
      m.element_cnt <- m.element_cnt + 1;
      touch m c;
      Node_tbl.replace m.node_class n c;
      add_uses m c n;
      c

(** [add_to_class m c node]: record that [node] is equivalent to class [c].
    If [node] already lives in another class, the classes merge.  Returns
    true when the memo changed. *)
let add_to_class m c (n : node) : bool =
  let c = find m c in
  let n = canon m n in
  match Node_tbl.find_opt m.node_class n with
  | Some c' when find m c' = c -> false
  | Some c' ->
      ignore (union m c c');
      true
  | None ->
      m.elements.(c) <- (m.element_cnt, n) :: m.elements.(c);
      m.element_cnt <- m.element_cnt + 1;
      touch m c;
      Node_tbl.replace m.node_class n c;
      add_uses m c n;
      true

(* ------------------------------------------------------------------ *)
(* Conversion from/to operator trees                                    *)
(* ------------------------------------------------------------------ *)

(** Insert a whole operator tree; returns the root class. *)
let rec insert_op m (op : Op.t) : int =
  match op with
  | Op.Scan { table; alias; schema } -> insert m (N_scan { table; alias; schema })
  | Op.Select { pred; arg } -> insert m (N_select { pred; arg = insert_op m arg })
  | Op.Project { items; arg } ->
      insert m (N_project { items; arg = insert_op m arg })
  | Op.Sort { order; arg } -> insert m (N_sort { order; arg = insert_op m arg })
  | Op.Product { left; right } ->
      insert m (N_product { left = insert_op m left; right = insert_op m right })
  | Op.Join { pred; left; right } ->
      insert m (N_join { pred; left = insert_op m left; right = insert_op m right })
  | Op.Temporal_join { pred; left; right } ->
      insert m (N_tjoin { pred; left = insert_op m left; right = insert_op m right })
  | Op.Temporal_aggregate { group_by; aggs; arg } ->
      insert m (N_taggr { group_by; aggs; arg = insert_op m arg })
  | Op.Dup_elim arg -> insert m (N_dupelim (insert_op m arg))
  | Op.Coalesce arg -> insert m (N_coalesce (insert_op m arg))
  | Op.Difference { left; right } ->
      insert m
        (N_difference { left = insert_op m left; right = insert_op m right })
  | Op.To_mw arg -> insert m (N_tm (insert_op m arg))
  | Op.To_db arg -> insert m (N_td (insert_op m arg))

exception Cyclic

(** Elements of a class, non-transfer elements first, so that a
    representative is the "plain" logical expression when one exists. *)
let preferred_elements m c =
  let rank = function N_tm _ | N_td _ -> 1 | _ -> 0 in
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) (elements m c)

(** Extract one representative operator tree from a class (the first
    element acyclically reachable; transfers are deprioritized so the
    representative is the "plain" logical expression when one exists).
    Used by the rule-soundness gate — all elements are equivalent, so any
    representative works. *)
let extract m (c : int) : Op.t =
  let rec go visiting c =
    let c = find m c in
    if List.mem c visiting then raise Cyclic;
    let visiting = c :: visiting in
    let rec try_els = function
      | [] -> raise Cyclic
      | n :: rest -> ( try op_of_node (go visiting) n with Cyclic -> try_els rest)
    in
    try_els (preferred_elements m c)
  in
  go [] c

(** Output schema of a class; raises what its derivation raised. *)
let schema_of m c = get (props m c).schema

(** Result location of a class; raises what its derivation raised. *)
let location m c = get (props m c).location
