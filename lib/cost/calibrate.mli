(** Cost-factor calibration — the Cost Estimator's calibration phase.

    Like Du et al. [4], factors are deduced by running designed probe
    queries against the actual substrate and fitting the formula
    coefficients to measured times.  Probes use synthetic relations, so
    calibration is independent of user data; it takes a few hundred
    milliseconds at the default sizes and is run once per DBMS
    installation. *)

open Tango_dbms

type probe_sizes = { small : int; large : int }

val run : ?sizes:probe_sizes -> Backend.t -> Factors.t
(** Calibrate against the backend's database; returns fresh factors and
    leaves no tables behind. *)

(** {2 Refitting from observed executions}

    The adaptive half of the paper's calibrate-then-adapt story: instead
    of designed probes, fit coefficients to what real queries measurably
    cost (fed by [Tango_profile]'s EXPLAIN ANALYZE records). *)

type observation = {
  factor : string;  (** a {!Factors.t} field name, e.g. ["p_tm"] *)
  x : float;
      (** the formula's size term for this execution (bytes, possibly
          scaled by merge levels / predicate terms) *)
  elapsed_us : float;  (** measured time attributed to this factor *)
}

val fit_slope : (float * float) list -> float option
(** Least-squares slope through the origin for [(x, t)] pairs; [None]
    without usable signal. *)

val refit :
  ?min_samples:int -> base:Factors.t -> observation list -> Factors.t * string list
(** Re-estimate every factor with at least [min_samples] (default 3)
    observations; others keep their [base] value.  Returns fresh factors
    (base unmodified) and the names refitted. *)
