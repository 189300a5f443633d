(** Ordered k-way gather merge over per-shard cursors.  See the
    interface for the ordering contract.

    When shard [names] are given, the time the merge sits blocked on a
    shard's stream — initializing it or refilling its batch buffer — is
    charged to that shard's {!Attribution} lane as {e wait} time, minus
    the transfer time the pull itself recorded underneath (so transfer
    and wait never double-count). *)

open Tango_rel

(* Run [f], charging the blocked time (beyond inner transfer time) to
   [name]'s wait lane. *)
let waited name f =
  match name with
  | None -> f ()
  | Some backend ->
      if not (Attribution.active ()) then f ()
      else begin
        let t0 = Tango_obs.mono_us () in
        let u0 = Attribution.transfer_us ~backend in
        Fun.protect
          ~finally:(fun () ->
            let blocked = Tango_obs.mono_us () -. t0 in
            let inner = Attribution.transfer_us ~backend -. u0 in
            Attribution.wait ~backend ~us:(Float.max 0.0 (blocked -. inner)))
          f
      end

let source_name names i =
  match names with
  | Some ns when i < Array.length ns -> Some ns.(i)
  | _ -> None

(* Drain [sources] one after another (no order to preserve). *)
let concat ?names ~schema (sources : Cursor.t list) : Cursor.t =
  let sources = Array.of_list sources in
  let n = Array.length sources in
  let at = ref 0 in
  Cursor.make ~schema
    ~init:(fun () ->
      Array.iteri
        (fun i c -> waited (source_name names i) (fun () -> Cursor.init c))
        sources;
      at := 0)
    ~next_batch:(fun () ->
      let rec pull () =
        if !at >= n then None
        else
          let i = !at in
          match
            waited (source_name names i) (fun () ->
                Cursor.next_batch sources.(i))
          with
          | Some b -> Some b
          | None ->
              incr at;
              pull ()
      in
      pull ())

(* K-way merge: one batch buffer per source, refilled on exhaustion; each
   output batch repeatedly takes the least head (ties to the lowest source
   index, so the merge is deterministic and stable across runs). *)
let kway ?names ~order ~schema (sources : Cursor.t array) : Cursor.t =
  let n = Array.length sources in
  let cmp = Order.comparator order schema in
  let bufs = Array.make n [||] in
  let pos = Array.make n 0 in
  let done_ = Array.make n false in
  let refill i =
    if (not done_.(i)) && pos.(i) >= Array.length bufs.(i) then
      match
        waited (source_name names i) (fun () -> Cursor.next_batch sources.(i))
      with
      | Some b ->
          bufs.(i) <- b;
          pos.(i) <- 0
      | None -> done_.(i) <- true
  in
  let head i =
    refill i;
    if done_.(i) then None else Some bufs.(i).(pos.(i))
  in
  let next_tuple () =
    let best = ref None in
    for i = n - 1 downto 0 do
      match head i with
      | None -> ()
      | Some t -> (
          (* scanning high→low index: on ties the lower source wins *)
          match !best with
          | Some (_, bt) when cmp bt t < 0 -> ()
          | _ -> best := Some (i, t))
    done;
    match !best with
    | None -> None
    | Some (i, t) ->
        pos.(i) <- pos.(i) + 1;
        Some t
  in
  Cursor.make ~schema
    ~init:(fun () ->
      Array.iteri
        (fun i c -> waited (source_name names i) (fun () -> Cursor.init c))
        sources;
      Array.fill bufs 0 n [||];
      Array.fill pos 0 n 0;
      Array.fill done_ 0 n false)
    ~next_batch:(fun () ->
      match next_tuple () with
      | None -> None
      | Some first ->
          let out = ref [ first ] in
          let count = ref 1 in
          let continue = ref true in
          while !continue && !count < Cursor.default_batch_size do
            match next_tuple () with
            | None -> continue := false
            | Some t ->
                out := t :: !out;
                incr count
          done;
          Some (Array.of_list (List.rev !out)))

let merge ?(order = []) ?names ~schema (sources : Cursor.t list) : Cursor.t =
  let names = Option.map Array.of_list names in
  match sources with
  | [] ->
      Cursor.make ~schema ~init:(fun () -> ()) ~next_batch:(fun () -> None)
  | [ c ] -> c
  | _ ->
      if order = [] then concat ?names ~schema sources
      else kway ?names ~order ~schema (Array.of_list sources)
