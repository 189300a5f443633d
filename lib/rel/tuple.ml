(** Tuples are flat arrays of values, positionally matching a {!Schema.t}. *)

type t = Value.t array

let arity = Array.length
let get (t : t) i = t.(i)
let of_list = Array.of_list

(** Field access by name through a schema. *)
let field schema (t : t) name = t.(Schema.index schema name)

(** Concatenation, used by join and product. *)
let concat (a : t) (b : t) : t = Array.append a b

(** [project schema names t] builds the sub-tuple with the given attributes. *)
let project schema names (t : t) : t =
  Array.of_list (List.map (fun n -> t.(Schema.index schema n)) names)

let compare (a : t) (b : t) =
  let n = Array.length a and m = Array.length b in
  let rec go i =
    if i >= n && i >= m then 0
    else if i >= n then -1
    else if i >= m then 1
    else
      match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let equal a b = compare a b = 0

let rec compare_from (idx : int array) (asc : bool array) (a : t) (b : t) i =
  if i = Array.length idx then 0
  else
    let k = idx.(i) in
    match Value.compare a.(k) b.(k) with
    | 0 -> compare_from idx asc a b (i + 1)
    | c -> if asc.(i) then c else -c

let compare_on idx asc a b = compare_from idx asc a b 0

(** Total tuple size in bytes, the per-tuple contribution to [size(r)]. *)
let byte_size (t : t) =
  let s = ref 0 in
  for i = 0 to Array.length t - 1 do
    s := !s + Value.byte_size t.(i)
  done;
  !s

(* --- marshalling: a tuple serializes as a value-count header followed by
   each value; used by storage pages and the DBMS client boundary --- *)

let serialize buf (t : t) =
  Buffer.add_int32_le buf (Int32.of_int (Array.length t));
  Array.iter (Value.serialize buf) t

(* Parsed into a pre-sized array: one allocation per tuple besides its
   values. *)
let read (r : Value.reader) : t =
  let n = Int32.to_int (String.get_int32_le r.src r.pos) in
  r.pos <- r.pos + 4;
  if n = 0 then [||]
  else begin
    let t = Array.make n Value.Null in
    for i = 0 to n - 1 do
      t.(i) <- Value.read r
    done;
    t
  end

(* Fields outside [keep] are skipped, not built: they stay [Null], so every
   position still means what the schema says. *)
let read_cols (keep : bool array) (r : Value.reader) : t =
  let n = Int32.to_int (String.get_int32_le r.src r.pos) in
  r.pos <- r.pos + 4;
  if n = 0 then [||]
  else begin
    let t = Array.make n Value.Null in
    for i = 0 to n - 1 do
      if keep.(i) then t.(i) <- Value.read r else Value.skip r
    done;
    t
  end
