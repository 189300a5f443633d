(** Name resolution over a keyed list in constant time per lookup: the
    first exact key match, else the unique item whose key has the name's
    base name. *)

module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type 'a t = {
  items : 'a list;
  key_of : 'a -> string option;
  exact : 'a Tbl.t;  (** key -> first item with that key *)
  mutable base : ('a * int) Tbl.t option;
      (** base name -> first item with that base name, and how many;
          built at the first lookup that needs it *)
}

let make key_of items =
  let exact = Tbl.create (List.length items) in
  List.iter
    (fun it ->
      match key_of it with
      | Some k when not (Tbl.mem exact k) -> Tbl.add exact k it
      | _ -> ())
    items;
  { items; key_of; exact; base = None }

let base_table t =
  match t.base with
  | Some b -> b
  | None ->
      let b = Tbl.create (Tbl.length t.exact) in
      List.iter
        (fun it ->
          match t.key_of it with
          | None -> ()
          | Some k -> (
              let bk = Schema.base_name k in
              match Tbl.find_opt b bk with
              | None -> Tbl.add b bk (it, 1)
              | Some (first, n) -> Tbl.replace b bk (first, n + 1)))
        t.items;
      t.base <- Some b;
      b

let find t name =
  match Tbl.find_opt t.exact name with
  | Some _ as found -> found
  | None -> (
      match Tbl.find_opt (base_table t) (Schema.base_name name) with
      | Some (it, 1) -> Some it
      | _ -> None)
