(** Plan-regression sentinel: best-plan table per query fingerprint and
    ratio-triggered regression flags. *)

module Json = Tango_obs.Json
module Dsync = Tango_obs.Dsync

type event =
  | Regression of {
      elapsed_us : float;
      best_us : float;
      best_signature : string;
      chosen_signature : string;
    }

type entry = {
  query_fingerprint : string;
  signature : string;
  elapsed_us : float;
  event : event;
  seq : int;
}

type t = {
  lock : Dsync.lock;  (* guards [best], [entries], [n_entries], [seq] *)
  best : (string, string * float) Hashtbl.t;
      (* query fingerprint -> (plan signature, best latency us) *)
  mutable entries : entry list; (* newest first *)
  mutable n_entries : int;
  mutable seq : int;
  regression_ratio : float;
  max_log : int;
}

let create ?(regression_ratio = 1.5) ?(max_log = 64) () : t =
  {
    lock = Dsync.named_lock "profile.sentinel";
    best = Hashtbl.create 32;
    entries = [];
    n_entries = 0;
    seq = 0;
    regression_ratio;
    max_log;
  }

let plan_regressions = Tango_obs.Counter.make "profile.plan_regressions"

let log_src = Logs.Src.create "tango.sentinel" ~doc:"TANGO plan sentinel"

module Log = (val Logs.src_log log_src : Logs.LOG)

let push (t : t) (e : entry) =
  t.entries <- e :: t.entries;
  t.n_entries <- t.n_entries + 1;
  if t.n_entries > t.max_log then begin
    t.entries <- List.filteri (fun i _ -> i < t.max_log) t.entries;
    t.n_entries <- t.max_log
  end
[@@tango.unguarded "internal helper, only called under t.lock"]

let observe (t : t) ~fingerprint ~signature ~elapsed_us : event list =
  (* table and log updates happen under the lock; the counter is atomic
     and the Logs call runs after release, so a slow reporter never
     extends the critical section *)
  let fired =
    Dsync.protect t.lock (fun () ->
        t.seq <- t.seq + 1;
        let fired =
          match Hashtbl.find_opt t.best fingerprint with
          | Some (best_sig, best_us)
            when best_sig <> signature
                 && elapsed_us > t.regression_ratio *. best_us ->
              let ev =
                Regression
                  { elapsed_us; best_us; best_signature = best_sig;
                    chosen_signature = signature }
              in
              push t
                { query_fingerprint = fingerprint; signature; elapsed_us;
                  event = ev; seq = t.seq };
              [ ev ]
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
  Dsync.protect t.lock (fun () -> Hashtbl.find_opt t.best fp)

let log (t : t) = Dsync.protect t.lock (fun () -> t.entries)

let event_to_json = function
  | Regression { elapsed_us; best_us; best_signature; chosen_signature } ->
      Json.Obj
        [
          ("kind", Json.String "plan_regression");
          ("elapsed_us", Json.Float elapsed_us);
          ("best_us", Json.Float best_us);
          ("best_signature", Json.String best_signature);
          ("chosen_signature", Json.String chosen_signature);
        ]

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    [
      ("query", Json.String e.query_fingerprint);
      ("signature", Json.String e.signature);
      ("elapsed_us", Json.Float e.elapsed_us);
      ("seq", Json.Int e.seq);
      ("event", event_to_json e.event);
    ]

let to_json (t : t) : Json.t =
  let best_plans, entries =
    Dsync.protect t.lock (fun () ->
        ( Hashtbl.fold
            (fun fp (sg, us) acc ->
              ( fp,
                Json.Obj
                  [ ("signature", Json.String sg); ("best_us", Json.Float us) ]
              )
              :: acc)
            t.best [],
          t.entries ))
  in
  Json.Obj
    [
      ("best_plans", Json.Obj best_plans);
      ("log", Json.List (List.map entry_to_json entries));
    ]
