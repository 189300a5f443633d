(** Per-backend cost factors.

    A sharded topology puts shards behind different (simulated) network
    latencies, so one global factor set misprices per-shard transfers.
    This store keys an independently calibrated {!Tango_cost.Factors.t}
    by the backend's name — the cost-factor handle of
    [Tango_dbms.Backend] — and falls back to the session's base factors
    for backends that have not calibrated yet.

    The table is guarded by the instance's lock ([base] is a read-only
    closure). *)

open Tango_cost

type t = {
  base : unit -> Factors.t;  (** fallback (the session's global factors) *)
  lock : Mutex.t;
  tbl : (string, Factors.t) Hashtbl.t;
}

let create ~base = { base; lock = Mutex.create (); tbl = Hashtbl.create 8 }

let set t name factors =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl name factors)

let get t name =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl name) with
  | Some f -> f
  | None -> t.base ()
