(** Sort orders: lists of attributes with directions.

    The middleware algebra tracks order as a first-class plan property
    (list vs multiset equivalence in the paper, Section 4); this module is
    the shared vocabulary for those properties and for sort operators. *)

type direction = Asc | Desc

type key = { attr : string; dir : direction }

(** An order specification; the empty list means "no known order". *)
type t = key list

let asc attr = { attr; dir = Asc }
let desc attr = { attr; dir = Desc }

let of_attrs attrs = List.map asc attrs
let attrs (o : t) = List.map (fun k -> k.attr) o

let key_equal a b =
  (* Unqualified and qualified spellings of the same attribute compare
     equal, mirroring Schema.index resolution. *)
  a.dir = b.dir
  && (String.equal a.attr b.attr
     || String.equal (Schema.base_name a.attr) (Schema.base_name b.attr))

let equal (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 key_equal a b

(** [is_prefix a b]: the paper's [IsPrefixOf(A, B)] predicate, used by
    rules T10 and T12. *)
let rec is_prefix (a : t) (b : t) =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | ka :: ta, kb :: tb -> key_equal ka kb && is_prefix ta tb

(** [satisfies actual required]: does a relation ordered by [actual] satisfy
    a requirement of [required]?  True when [required] is a prefix of
    [actual]. *)
let satisfies ~actual ~required = is_prefix required actual

(** Comparator over tuples for this order under the given schema.  Key
    positions and directions are resolved once; a comparison allocates
    nothing. *)
let comparator (o : t) schema : Tuple.t -> Tuple.t -> int =
  let idx = Array.of_list (List.map (fun k -> Schema.index schema k.attr) o) in
  let asc = Array.of_list (List.map (fun k -> k.dir = Asc) o) in
  Tuple.compare_on idx asc

let pp_key ppf k =
  Fmt.pf ppf "%s%s" k.attr (match k.dir with Asc -> "" | Desc -> " DESC")

let pp ppf (o : t) = Fmt.(list ~sep:(any ", ") pp_key) ppf o
let to_string o = Fmt.str "%a" pp o
