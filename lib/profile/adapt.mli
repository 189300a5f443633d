(** Adaptive recalibration — the paper's "adaptable" claim, closed-loop.

    When the feedback store shows that the operators priced by some cost
    factor are misestimated past a q-error threshold, the affected
    coefficients are refitted from the observed executions
    ({!Tango_cost.Calibrate.refit}) and installed into the session's
    factors, so subsequent optimizer runs plan with corrected costs. *)

open Tango_cost

val q_threshold : float
(** A factor is refitted once its operators' mean cost q-error reaches
    this (1.5), over at least three observations. *)

val refits : Tango_obs.Counter.t
(** ["profile.cost_refits"]: recalibrations performed. *)

val maybe_refit : Feedback.t -> factors:Factors.t -> string list option
(** Check the store's per-factor q-error aggregates; when any factor
    crosses the threshold with enough samples, refit every such factor
    from the store's observation window, install the new coefficients
    into [factors] (in place), clear the refitted factors' evidence (every
    other factor keeps its own), and return the refitted names.  [None]
    when no adaptation was warranted. *)
