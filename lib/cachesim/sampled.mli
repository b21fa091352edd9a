(** Sampled cache simulation: detailed windows plus functional warming.

    The paper's measurement never observes every access — PMU sampling
    records every [period]-th miss event and extrapolates. This module
    is the simulation-side analogue: each period of [stride] accesses
    simulates the first [window] accesses in full detail (recorded in
    the wrapped {!Hierarchy}'s counters) and spends the remainder
    {e warming} the hierarchy ({!Hierarchy.warm}: tag/LRU state moves,
    counters don't). Warming every non-window access tracks exact
    simulation to ~0.01% on the roster.

    With [stride = window] every access is detailed and the results are
    exactly those of {!Hierarchy.access} — a property the unit
    tests pin. The estimators scale window-recorded counters by
    total/recorded accesses; the roster accuracy gate
    ([test_sampled.ml], [make accuracy]) bounds the resulting
    per-level miss-rate error and requires speedup-sign agreement with
    exact simulation. *)

type t

val create : ?window:int -> ?stride:int -> Hierarchy.config -> t
(** Raises [Invalid_argument] unless [0 < window <= stride]. *)

val access : t -> addr:int -> size:int -> is_float:bool -> unit
(** Feed one access: detailed or warming depending on the position
    within the current period. *)

val drain : t -> int array -> int array -> int -> int -> unit
(** [drain t addrs metas lo hi] feeds ring events [lo, hi) (packed as
    in {!Ring}) through the sampler by slicing the batch into period
    segments. Counters and cache state are byte-equal to calling
    {!access} once per event in order (QCheck property); this is the
    sink a sampled-fidelity measure phase installs on its {!Ring},
    inline or on a {!Drainer} worker. Do not mix with per-access
    {!access} on the same sampler — each path keeps its warm memo in
    its own home (the [t] record here, the hierarchy drain memo
    there). *)

val hierarchy : t -> Hierarchy.t
(** The wrapped hierarchy; its counters cover only detailed windows. *)

val total_accesses : t -> int
(** Every access seen, recorded or not (exact, not estimated). *)

val recorded_accesses : t -> int
(** Accesses simulated in detail, i.e. {!Hierarchy.accesses}. *)

val scale : t -> float
(** total / recorded (1.0 while every access so far was recorded). *)

val est_l1_misses : t -> int
val est_l2_misses : t -> int
val est_extra_cycles : t -> int
(** Window-recorded counters scaled by {!scale}, rounded to nearest. *)

(** {1 The fidelity knob}

    The CLI/driver-facing selector: [exact] is full-trace simulation,
    [sampled\[:window,stride\]] is this module. *)

type fidelity = Exact | Sampled of { window : int; stride : int }

val sampled_default : fidelity
(** [Sampled] with a 4096-access window per 32768-access stride. *)

val fidelity_name : fidelity -> string
(** ["exact"] or ["sampled:W,S"] — round-trips with
    {!fidelity_of_string}. *)

val fidelity_of_string : string -> (fidelity, string) result
(** Accepts ["exact"], ["sampled"] (defaults) and ["sampled:W,S"].
    Rejects misconfigurations with a specific message: non-positive
    window or stride, and [W > S]; [W = S] (every access detailed)
    stays accepted. ["sampled:W,S,0"] parses as ["sampled:W,S"]; a
    non-zero third field, the skip of the removed fast-forward mode,
    is rejected with a message naming the removal. *)

val of_fidelity : Hierarchy.config -> fidelity -> t option
(** [None] for [Exact]. *)
