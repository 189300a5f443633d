(** Backend topologies.  See the interface for the data-placement
    contract (one range-partitioned table, everything else replicated). *)

type bounds = { lo : int option; hi : int option }

let unbounded = { lo = None; hi = None }

type t = {
  mutable shard_list : (Backend.t * bounds) list;
  partitioned : (string * string) option;  (** (table, column) *)
  mutable gen : int;
}

let create ?partitioned shards =
  if shards = [] then invalid_arg "Topology.create: no backends";
  { shard_list = shards; partitioned; gen = 0 }

let single backend = create [ (backend, unbounded) ]

let primary t = fst (List.hd t.shard_list)
let backends t = List.map fst t.shard_list
let shards t = t.shard_list
let shard_count t = List.length t.shard_list

let is_sharded t = t.partitioned <> None && shard_count t > 1
let partitioned_table t = t.partitioned

let find t name =
  List.find_map
    (fun (b, _) -> if Backend.name b = name then Some b else None)
    t.shard_list

let generation t = t.gen
let bump_generation t = t.gen <- t.gen + 1

let add_shard t backend bounds =
  t.shard_list <- t.shard_list @ [ (backend, bounds) ];
  bump_generation t

(* Quantile split points: sort the sample and cut at i·|v|/n.  Equal split
   values collapse (a shard may end up empty on pathological samples, which
   is harmless — its bounds select nothing). *)
let quantile_bounds values n =
  if n <= 1 then [ unbounded ]
  else begin
    let v = Array.copy values in
    Array.sort compare v;
    let len = Array.length v in
    let cut i =
      if len = 0 then None else Some v.(min (len - 1) (i * len / n))
    in
    List.init n (fun i ->
        {
          lo = (if i = 0 then None else cut i);
          hi = (if i = n - 1 then None else cut (i + 1));
        })
  end
