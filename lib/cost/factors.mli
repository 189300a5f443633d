(** Cost factors — the [p] coefficients of the paper's cost formulas
    (Figure 6 and the "generic" DBMS formulas of [20]).

    Units: microseconds per byte of relation data ([size(r)] is in
    bytes).  The defaults are order-of-magnitude guesses good enough
    for unit tests; real runs determine them with {!Calibrate} and the
    middleware's feedback loop may adapt them after each query.

    Domain safety: a [t] is a plain mutable record with no internal
    lock.  Refits fit on a private {!copy}; treat a shared [t] as
    read-only. *)

type t = {
  (* transfers *)
  mutable p_tm : float;  (** [TRANSFER^M] per byte *)
  mutable p_td : float;  (** [TRANSFER^D] per byte *)
  (* middleware algorithms *)
  mutable p_sem : float;  (** [FILTER^M] per byte per predicate term *)
  mutable p_pm : float;  (** [PROJECT^M] per byte *)
  mutable p_sortm : float;  (** [SORT^M] per byte per merge level *)
  mutable p_mjm1 : float;  (** [MERGEJOIN^M] per input byte *)
  mutable p_mjm2 : float;  (** [MERGEJOIN^M] per output byte *)
  mutable p_tjm1 : float;  (** [TJOIN^M] per input byte *)
  mutable p_tjm2 : float;  (** [TJOIN^M] per output byte *)
  mutable p_taggm1 : float;  (** [TAGGR^M] per input byte *)
  mutable p_taggm2 : float;  (** [TAGGR^M] per output byte *)
  mutable p_dupm : float;  (** [DUPELIM^M] per byte *)
  mutable p_coalm : float;  (** [COALESCE^M] per byte *)
  mutable p_diffm : float;  (** [DIFFERENCE^M] per byte *)
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

val default : unit -> t
val copy : t -> t

val get_by_name : t -> string -> float option

val set_by_name : t -> string -> float -> bool
(** Set a factor by field name; [false] when the name is unknown. *)

val to_json : t -> Tango_obs.Json.t

val assign : t -> t -> unit
(** [assign dst src] overwrites every factor of [dst] with [src]'s, in
    place — how a session adopts a calibrated factor set. *)

val pp : Format.formatter -> t -> unit
