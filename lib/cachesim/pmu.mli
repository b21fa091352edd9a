(** Performance-monitoring-unit sampling, standing in for HP Caliper.

    The paper's PBO collection phase lets the instrumented binary "gather
    sampling data from the hardware performance monitoring unit", recording
    data-cache events that the use phase later attributes to loads and
    stores. We model a PMU that counts {e first-level d-cache miss events}
    (L1 misses for integer accesses, L2 misses for floating point accesses,
    matching the Itanium convention) and records every [period]-th event as
    a sample carrying the instruction id and the access latency.

    Sampling is deterministic — a fixed period, not randomised — so
    experiments are reproducible. A non-zero [phase] offsets the first
    sample, which is how we model the (tiny) perturbation instrumentation
    causes: the paper's DMISS vs DMISS.NO comparison (correlation 0.996). *)

type stats = {
  miss_events : int;    (** sampled d-cache miss events *)
  total_latency : int;  (** summed latency of sampled events, cycles *)
}

type t

val create : ?period:int -> ?phase:int -> unit -> t
(** Default [period] is 251 (prime, avoids resonance with loop trip
    counts), default [phase] 0. Any [phase] — negative or larger than
    the period — is normalized into [0, period), so [~phase:(-3)] and
    [~phase:(period - 3)] sample the same events. Raises
    [Invalid_argument] on a non-positive period. *)

val record :
  t -> iid:int -> level:Hierarchy.level -> latency:int -> is_float:bool -> unit
(** Feed one memory access. Non-miss accesses only advance internal
    counters. *)

val attach : t -> Hierarchy.t -> unit
(** Let the hierarchy's batch drain ({!Hierarchy.drain_quiet}) feed
    this PMU: the drain applies {!record}'s miss rule, continues this
    PMU's period and phase, and hands over only the sampled events.
    Draining a stream through an attached PMU gives the same stats and
    {!events_seen} as {!record} after {!Hierarchy.access} on every event
    (a QCheck property pins this). Once attached, feed events through
    the drain only: {!record} does not advance the drain's count. *)

val events_seen : t -> int
(** Total (unsampled) first-level miss events. *)

val by_instr : t -> (int * stats) list
(** Sampled statistics per instruction id, sorted by id. *)

val stats_of : t -> int -> stats
(** Stats for one instruction id ({!field:stats.miss_events} 0 if never
    sampled). *)
