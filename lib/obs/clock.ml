(** Two clocks with two jobs.

    [mono_us] is CLOCK_MONOTONIC: unaffected by wall-clock steps, the
    only correct source for {e durations} (span timings, phase
    breakdowns, lock wait/hold intervals, SLO latencies).  Its zero is
    arbitrary — values are only meaningful as differences.

    [wall_us] is the wall clock: the source for {e timestamps} that
    must be interpretable outside the process (event-log [at_us],
    SLO window edges). *)

external mono_us : unit -> float = "tango_clock_monotonic_us"

let wall_us () = Unix.gettimeofday () *. 1_000_000.0
