(** Plan-regression sentinel: best-plan table per query fingerprint and
    ratio-triggered regression flags. *)

type event =
  | Regression of {
      elapsed_us : float;
      best_us : float;
      best_signature : string;
      chosen_signature : string;
    }

type t = {
  lock : Mutex.t;  (* guards [best] *)
  best : (string, string * float) Hashtbl.t;
      (* query fingerprint -> (plan signature, best latency us) *)
}

(* A changed plan slower than this multiple of the best is a
   regression. *)
let regression_ratio = 1.5

let create () : t =
  { lock = Mutex.create (); best = Hashtbl.create 32 }

let plan_regressions = Tango_obs.Counter.make "profile.plan_regressions"

let log_src = Logs.Src.create "tango.sentinel" ~doc:"TANGO plan sentinel"

module Log = (val Logs.src_log log_src : Logs.LOG)

let observe (t : t) ~fingerprint ~signature ~elapsed_us : event list =
  (* table updates happen under the lock; the counter is atomic and the
     Logs call runs after release, so a slow reporter never extends the
     critical section *)
  let fired =
    Mutex.protect t.lock (fun () ->
        let fired =
          match Hashtbl.find_opt t.best fingerprint with
          | Some (best_sig, best_us)
            when best_sig <> signature
                 && elapsed_us > regression_ratio *. best_us ->
              [
                Regression
                  { elapsed_us; best_us; best_signature = best_sig;
                    chosen_signature = signature };
              ]
          | _ -> []
        in
        (match Hashtbl.find_opt t.best fingerprint with
        | Some (_, best_us) when elapsed_us >= best_us -> ()
        | _ -> Hashtbl.replace t.best fingerprint (signature, elapsed_us));
        fired)
  in
  List.iter
    (fun (Regression { best_us; best_signature; _ }) ->
      Tango_obs.Counter.incr plan_regressions;
      Log.warn (fun m ->
          m "plan regression for %s: %.1f ms vs best %.1f ms; chose %s over %s"
            fingerprint (elapsed_us /. 1000.0) (best_us /. 1000.0) signature
            best_signature))
    fired;
  fired

let best (t : t) fp =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.best fp)
