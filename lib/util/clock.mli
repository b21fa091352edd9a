(** Monotonic time for durations.

    Latency histograms, request deadlines and throughput measurements
    must not use wall-clock time: an NTP step (or a leap smear) skews
    every percentile and can expire or extend a deadline arbitrarily.
    This module reads [CLOCK_MONOTONIC] through a C stub, so durations
    are immune to wall-clock adjustments. Wall time
    ([Unix.gettimeofday]) remains the right source for timestamps shown
    to humans (a server's [started] time, uptime display).

    The epoch of {!now_ns} is unspecified (on Linux, boot time): only
    differences between two readings are meaningful. *)

val now_ns : unit -> int64
(** Current monotonic time in nanoseconds. Never decreases within a
    process; the absolute value is meaningless. *)

val elapsed_ms : since:int64 -> float
(** [elapsed_ms ~since] is the duration in milliseconds from the
    {!now_ns} reading [since] to now. *)

val span_ms : int64 -> int64 -> float
(** [span_ms t0 t1] is [t1 - t0] in milliseconds. *)

val timed : (unit -> 'a) -> 'a * float
(** [f ()] and its duration in milliseconds. *)
