(** Adaptive recalibration: threshold check over the feedback store's
    per-factor q-error aggregates, refit via {!Tango_cost.Calibrate.refit},
    in-place install into the session factors. *)

open Tango_cost

let q_threshold = 1.5

(* Observations a factor needs before it is refitted. *)
let min_samples = 3

let refits = Tango_obs.Counter.make "profile.cost_refits"

let log_src = Logs.Src.create "tango.profile" ~doc:"TANGO profiling & adaptation"

module Log = (val Logs.src_log log_src : Logs.LOG)

let maybe_refit (store : Feedback.t) ~(factors : Factors.t) :
    string list option =
  let triggered =
    List.filter_map
      (fun (factor, (samples, mean_q)) ->
        if samples >= min_samples && mean_q >= q_threshold then
          Some factor
        else None)
      (Feedback.factor_q store)
  in
  if triggered = [] then None
  else begin
    let obs =
      List.filter
        (fun (o : Calibrate.observation) ->
          List.mem o.Calibrate.factor triggered)
        (Feedback.observations store)
    in
    let fitted, refitted = Calibrate.refit ~min_samples ~base:factors obs in
    if refitted = [] then None
    else begin
      List.iter
        (fun name ->
          match Factors.get_by_name fitted name with
          | Some v -> ignore (Factors.set_by_name factors name v)
          | None -> ())
        refitted;
      Feedback.clear_factors store refitted;
      Tango_obs.Counter.incr refits;
      Log.info (fun m ->
          m "adaptive recalibration: refitted %s; factors now %a"
            (String.concat ", " refitted)
            Factors.pp factors);
      Some refitted
    end
  end
