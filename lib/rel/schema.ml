(** Relation schemas: ordered lists of named, typed attributes.

    Attribute names may be qualified ([POS.T1]) or unqualified ([T1]).
    Lookup by an unqualified name succeeds when exactly one attribute's
    base name (the part after the last dot) matches. *)

type attribute = { name : string; dtype : Value.dtype }

type t = attribute array

let make pairs : t =
  Array.of_list (List.map (fun (name, dtype) -> { name; dtype }) pairs)

let arity (s : t) = Array.length s
let attributes (s : t) = Array.to_list s
let names (s : t) = Array.to_list (Array.map (fun a -> a.name) s)
let dtype_at (s : t) i = s.(i).dtype
let name_at (s : t) i = s.(i).name

(** Base name of a possibly qualified attribute name. *)
let base_name name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* Whether [name] ends with [base] from offset [i] of [base] on, [base]
   holding no dot there. *)
let rec dotless_suffix name base i =
  i = String.length base
  || base.[i] <> '.'
     && name.[String.length name - String.length base + i] = base.[i]
     && dotless_suffix name base (i + 1)

(** Whether [name]'s base name is [base], without building it. *)
let has_base_name name base =
  let n = String.length name and b = String.length base in
  n >= b && dotless_suffix name base 0 && (n = b || name.[n - b - 1] = '.')

(* The first position from [i] on whose attribute is named [name], -1 if
   none. *)
let rec exact_from (s : t) name i =
  if i = Array.length s then -1
  else if String.equal s.(i).name name then i
  else exact_from s name (i + 1)

(* The position of the only attribute from [i] on whose base name is
   [name] ([found] the one met so far, -1 if none); raises [Not_found]
   when there is none or more than one. *)
let rec unique_base_from (s : t) name i found =
  if i = Array.length s then if found < 0 then raise Not_found else found
  else if has_base_name s.(i).name name then
    if found >= 0 then raise Not_found (* ambiguous *)
    else unique_base_from s name (i + 1) i
  else unique_base_from s name (i + 1) found

(** Index of attribute [name] in schema [s].  An exact match wins; otherwise
    an unqualified [name] matches a unique attribute with that base name.
    Raises [Not_found] when the attribute is missing or ambiguous. *)
let index (s : t) name =
  match exact_from s name 0 with
  | -1 -> unique_base_from s name 0 (-1)
  | i -> i

let index_opt s name = try Some (index s name) with Not_found -> None
let mem s name = index_opt s name <> None

let dtype_of s name = (s.(index s name)).dtype

(** Concatenation for joins and products. *)
let concat (a : t) (b : t) : t = Array.append a b

(** [project s names] keeps the named attributes, in the given order. *)
let project (s : t) names_ : t =
  Array.of_list (List.map (fun n -> s.(index s n)) names_)

(** [qualify alias s] prefixes every attribute base name with [alias.]. *)
let qualify alias (s : t) : t =
  Array.map (fun a -> { a with name = alias ^ "." ^ base_name a.name }) s

(** [unqualify s] strips qualifiers; used when materializing a derived table
    whose column names must be plain. *)
let unqualify (s : t) : t =
  Array.map (fun a -> { a with name = base_name a.name }) s

(** [rename s from to_] renames a single attribute. *)
let rename (s : t) from to_ : t =
  let i = index s from in
  Array.mapi (fun j a -> if j = i then { a with name = to_ } else a) s

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> String.equal x.name y.name && x.dtype = y.dtype) a b

(** Schemas are union-compatible when arities and types agree (names may
    differ), as required by difference and union. *)
let union_compatible (a : t) (b : t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x.dtype = y.dtype) a b

let pp ppf (s : t) =
  Fmt.pf ppf "(%a)"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf a ->
         Fmt.pf ppf "%s %s" a.name (Value.dtype_name a.dtype)))
    (Array.to_list s)

let to_string s = Fmt.str "%a" pp s
