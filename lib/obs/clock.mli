(** Monotonic vs wall clocks — durations vs timestamps. *)

val mono_us : unit -> float
(** CLOCK_MONOTONIC in microseconds.  Arbitrary origin; immune to
    wall-clock steps.  Use for every duration (span timings, phases,
    lock wait/hold, HTTP service time). *)

val wall_us : unit -> float
(** Wall time in microseconds since the epoch.  Use only for
    timestamps that leave the process (event-log [at_us], SLO window
    edges). *)
