(** Sampled cache simulation: detailed windows plus functional warming.

    The paper's measurement never observes every access — PMU sampling
    records every [period]-th miss event and extrapolates. This module
    is the simulation-side analogue: each period of [stride] accesses
    simulates the first [window] accesses in full detail (recorded in
    the wrapped {!Hierarchy}'s counters), optionally skips the next
    [skip] accesses entirely, and spends the remainder {e warming} the
    hierarchy ({!Hierarchy.warm}: tag/LRU state moves, counters don't).

    [skip] defaults to [0] — full functional warming. Roster
    measurements showed that a frozen skip segment leaves the large,
    slow-converging L2 systematically stale (miss-rate biases of
    multiple percentage points, enough to flip near-zero speedup
    signs), while warming every non-window access tracks exact
    simulation to ~0.01%. Non-zero [skip] is the fast-forward mode,
    accelerated to O(1) per block chain by the superblock VM's bulk
    hook ({!try_advance}) — and its cold-start bias is corrected: each
    cache keeps a per-set footprint sketch (line insertions per
    simulated access), and at the first simulated access after a skip
    segment the skipped traffic is charged to the cache state by
    extrapolating that per-set fill rate into synthetic LRU evictions
    ({!Hierarchy.correct_skip}). This is what licenses a skipping
    configuration against the roster accuracy gate.

    With [stride = window] every access is detailed and the results are
    exactly those of {!Hierarchy.access} — a property the unit
    tests pin. The estimators scale window-recorded counters by
    total/recorded accesses; the roster accuracy gate
    ([test_sampled.ml], [bench/accuracy.exe]) bounds the resulting
    per-level miss-rate error and requires speedup-sign agreement with
    exact simulation. *)

type t

val default_window : int
val default_stride : int

val create : ?window:int -> ?stride:int -> ?skip:int -> Hierarchy.config -> t
(** Raises [Invalid_argument] unless [0 < window], [0 <= skip] and
    [window + skip <= stride]. [skip] defaults to [0]. *)

val access : t -> addr:int -> size:int -> is_float:bool -> unit
(** Feed one access: detailed, skipped or warming depending on the
    position within the current period. *)

val try_advance : t -> int -> bool
(** [try_advance t n] consumes [n] upcoming accesses in O(1) iff all of
    them fall inside the current period's skip segment (returns false —
    and consumes nothing — otherwise, including for [n <= 0]; with the
    default [skip = 0] it therefore never succeeds). Equivalent to [n]
    calls to {!access} when it succeeds; the superblock VM backend uses
    this to retire a whole block's worth of accesses per branch during
    fast-forward. *)

val bulk_ready : t -> pending:int -> int -> bool
(** [bulk_ready t ~pending n] — would {!try_advance}[ t n] succeed
    after first feeding the [pending] buffered (not yet drained) ring
    events? Pure prediction, consumes nothing. The driver's bulk hook
    uses it to decide whether to flush the ring and fast-forward a
    whole superblock chain: events buffered in the ring have already
    happened in stream order, so the advance test must be made at
    [pos + pending], not [pos]. *)

val drain : t -> int array -> int array -> int -> int -> unit
(** [drain t addrs metas lo hi] feeds ring events [lo, hi) (packed as
    in {!Ring}) through the sampler by slicing the batch into period
    segments. Counters, cache state and pending-skip accounting are
    byte-equal to calling {!access} once per event in order (QCheck
    property); this is the sink a sampled-fidelity measure phase
    installs on its {!Ring}. Do not mix with per-access {!access} on
    the same sampler — each path keeps its warm memo in its own home
    (the [t] record here, the hierarchy drain memo there). *)

val hierarchy : t -> Hierarchy.t
(** The wrapped hierarchy; its counters cover only detailed windows. *)

val total_accesses : t -> int
(** Every access seen, recorded or not (exact, not estimated). *)

val recorded_accesses : t -> int
(** Accesses simulated in detail, i.e. {!Hierarchy.accesses}. *)

val scale : t -> float
(** total / recorded (1.0 when nothing was skipped yet). *)

val est_l1_misses : t -> int
val est_l2_misses : t -> int
val est_extra_cycles : t -> int
(** Window-recorded counters scaled by {!scale}, rounded to nearest. *)

(** {1 The fidelity knob}

    The CLI/driver-facing selector: [exact] is full-trace simulation,
    [sampled\[:window,stride\[,skip\]\]] is this module. *)

type fidelity = Exact | Sampled of { window : int; stride : int; skip : int }

val sampled_default : fidelity
(** [Sampled] with {!default_window} / {!default_stride} and no skip. *)

val fidelity_name : fidelity -> string
(** ["exact"], ["sampled:W,S"] or ["sampled:W,S,K"] — round-trips with
    {!fidelity_of_string}. *)

val fidelity_of_string : string -> (fidelity, string) result
(** Accepts ["exact"], ["sampled"] (defaults), ["sampled:W,S"] and
    ["sampled:W,S,K"]. Rejects misconfigurations with a specific
    message: non-positive window or stride, [W > S], negative skip,
    and a skip that swallows the whole warm segment ([K >= S - W] with
    [K > 0] — such a setup never warms between skip and the next
    window, so its bias cannot be corrected). [K = 0] with [W = S]
    (every access detailed) stays accepted. *)

val of_fidelity : Hierarchy.config -> fidelity -> t option
(** [None] for [Exact]. *)
