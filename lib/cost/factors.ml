(** Cost factors — the [p] coefficients of the paper's cost formulas
    (Figure 6 and the "generic" DBMS formulas of [20]).

    Units: microseconds per byte of relation data ([size(r)] is in bytes).
    The defaults below are the medians printed by the committed
    calibration procedure ([bench --experiment calib], EXPERIMENTS E18);
    {!Calibrate} is the analogue of the Cost Estimator module's
    calibration phase (Du et al. style), and the middleware's feedback
    loop may adapt factors after each query. *)

type t = {
  (* transfers *)
  mutable p_tm : float;  (** `TRANSFER^M` per byte *)
  mutable p_td : float;  (** `TRANSFER^D` per byte *)
  (* middleware algorithms *)
  mutable p_sem : float;  (** `FILTER^M` per byte per predicate term *)
  mutable p_pm : float;  (** `PROJECT^M` per byte *)
  mutable p_sortm : float;  (** `SORT^M` per byte per merge level *)
  mutable p_mjm1 : float;  (** `MERGEJOIN^M` per input byte *)
  mutable p_mjm2 : float;  (** `MERGEJOIN^M` per output byte *)
  mutable p_tjm1 : float;  (** `TJOIN^M` per input byte *)
  mutable p_tjm2 : float;  (** `TJOIN^M` per output byte *)
  mutable p_taggm1 : float;  (** `TAGGR^M` per input byte *)
  mutable p_taggm2 : float;  (** `TAGGR^M` per output byte *)
  mutable p_dupm : float;  (** `DUPELIM^M` per byte *)
  mutable p_coalm : float;  (** `COALESCE^M` per byte *)
  mutable p_diffm : float;  (** `DIFFERENCE^M` per byte *)
  (* generic DBMS algorithms *)
  mutable p_scan : float;  (** full table scan per byte *)
  mutable p_isc : float;  (** index scan per fetched byte *)
  mutable p_sortd : float;  (** DBMS sort per byte per log2(blocks) *)
  mutable p_joind1 : float;  (** DBMS join per input byte *)
  mutable p_joind2 : float;  (** DBMS join per output byte *)
  mutable p_cartd : float;  (** DBMS Cartesian product per output byte *)
  mutable p_taggd1 : float;  (** DBMS temporal aggregation per input byte *)
  mutable p_taggd2 : float;  (** DBMS temporal aggregation per output byte *)
}

(* Medians of 9 calibrations (EXPERIMENTS E18); the three factors
   calibration does not fit (p_dupm, p_coalm, p_diffm) keep the seed's
   values. *)
let default () =
  {
    p_tm = 0.05095;
    p_td = 0.06453;
    p_sem = 0.001784;
    p_pm = 0.004498;
    p_sortm = 0.001899;
    p_mjm1 = 0.0005779;
    p_mjm2 = 0.004498;
    p_tjm1 = 0.007302;
    p_tjm2 = 0.004498;
    p_taggm1 = 0.00322;
    p_taggm2 = 0.004498;
    p_dupm = 0.02;
    p_coalm = 0.02;
    p_diffm = 0.04;
    p_scan = 0.006893;
    p_isc = 0.01034;
    p_sortd = 0.003958;
    p_joind1 = 0.00734;
    p_joind2 = 0.07529;
    p_cartd = 0.07529;
    p_taggd1 = 4.129;
    p_taggd2 = 0.07529;
  }

let copy (f : t) = { f with p_tm = f.p_tm }

(** All factors by field name — the stable keys used by the refit and
    profiling machinery ({!Calibrate.refit}, [Tango_profile]) and by JSON
    exports. *)
let to_assoc (f : t) : (string * float) list =
  [
    ("p_tm", f.p_tm); ("p_td", f.p_td); ("p_sem", f.p_sem); ("p_pm", f.p_pm);
    ("p_sortm", f.p_sortm); ("p_mjm1", f.p_mjm1); ("p_mjm2", f.p_mjm2);
    ("p_tjm1", f.p_tjm1); ("p_tjm2", f.p_tjm2); ("p_taggm1", f.p_taggm1);
    ("p_taggm2", f.p_taggm2); ("p_dupm", f.p_dupm); ("p_coalm", f.p_coalm);
    ("p_diffm", f.p_diffm); ("p_scan", f.p_scan); ("p_isc", f.p_isc);
    ("p_sortd", f.p_sortd); ("p_joind1", f.p_joind1); ("p_joind2", f.p_joind2);
    ("p_cartd", f.p_cartd); ("p_taggd1", f.p_taggd1); ("p_taggd2", f.p_taggd2);
  ]

let get_by_name (f : t) name : float option =
  List.assoc_opt name (to_assoc f)

(** Set a factor by field name; [false] when the name is unknown. *)
let set_by_name (f : t) name v : bool =
  match name with
  | "p_tm" -> f.p_tm <- v; true
  | "p_td" -> f.p_td <- v; true
  | "p_sem" -> f.p_sem <- v; true
  | "p_pm" -> f.p_pm <- v; true
  | "p_sortm" -> f.p_sortm <- v; true
  | "p_mjm1" -> f.p_mjm1 <- v; true
  | "p_mjm2" -> f.p_mjm2 <- v; true
  | "p_tjm1" -> f.p_tjm1 <- v; true
  | "p_tjm2" -> f.p_tjm2 <- v; true
  | "p_taggm1" -> f.p_taggm1 <- v; true
  | "p_taggm2" -> f.p_taggm2 <- v; true
  | "p_dupm" -> f.p_dupm <- v; true
  | "p_coalm" -> f.p_coalm <- v; true
  | "p_diffm" -> f.p_diffm <- v; true
  | "p_scan" -> f.p_scan <- v; true
  | "p_isc" -> f.p_isc <- v; true
  | "p_sortd" -> f.p_sortd <- v; true
  | "p_joind1" -> f.p_joind1 <- v; true
  | "p_joind2" -> f.p_joind2 <- v; true
  | "p_cartd" -> f.p_cartd <- v; true
  | "p_taggd1" -> f.p_taggd1 <- v; true
  | "p_taggd2" -> f.p_taggd2 <- v; true
  | _ -> false

let to_json (f : t) : Tango_obs.Json.t =
  Tango_obs.Json.Obj
    (List.map (fun (n, v) -> (n, Tango_obs.Json.Float v)) (to_assoc f))

(** Overwrite every factor of [dst] with [src]'s — adopting a calibrated
    set.  Goes through {!to_assoc}/{!set_by_name}, so no factor can be
    left behind. *)
let assign (dst : t) (src : t) =
  List.iter (fun (name, v) -> ignore (set_by_name dst name v)) (to_assoc src)

let pp ppf f =
  Fmt.pf ppf
    "tm=%.4f td=%.4f sem=%.4f sortm=%.4f mjm=%.4f/%.4f tjm=%.4f/%.4f \
     taggm=%.4f/%.4f scan=%.4f sortd=%.4f joind=%.4f/%.4f taggd=%.4f/%.4f"
    f.p_tm f.p_td f.p_sem f.p_sortm f.p_mjm1 f.p_mjm2 f.p_tjm1 f.p_tjm2
    f.p_taggm1 f.p_taggm2 f.p_scan f.p_sortd f.p_joind1 f.p_joind2 f.p_taggd1
    f.p_taggd2
