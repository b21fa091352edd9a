(** Two-level data-cache hierarchy with an Itanium-flavoured quirk: floating
    point accesses bypass L1 and are served from L2 — the paper notes "the
    counts refer to the first level of cache for a given operation — L2 for
    floating point values and L1 for everything else on Itanium".

    The default configuration models the paper's evaluation machine (HP
    rx2600, Itanium 2): 16 KB / 64 B L1D, 6 MB / 128 B unified L2 (the paper
    quotes both "6 MB of L2 cache" and the 128-byte L2 line), main memory at
    200 cycles.

    The hierarchy also accumulates a simple in-order cycle model: each
    executed instruction costs one cycle, and each memory access adds its
    access latency beyond the 1-cycle L1 hit that is already covered by the
    instruction's base cycle. *)

type level = L1 | L2 | Mem

type config = {
  l1_size : int;
  l1_line : int;
  l1_assoc : int;
  l2_size : int;
  l2_line : int;
  l2_assoc : int;
  l1_lat : int;   (** cycles for an L1 hit *)
  l2_lat : int;   (** cycles for an L2 hit *)
  mem_lat : int;  (** cycles for a memory access *)
  fp_bypass_l1 : bool;
}

val itanium : config
(** The default, Itanium-2-like configuration described above. *)

val small : config
(** A small configuration (4 KB L1, 64 KB L2) for unit tests that want
    misses without megabyte working sets. *)

type t

val create : config -> t

val access : t -> addr:int -> size:int -> is_float:bool -> int * level
(** Simulate one access; returns (latency in cycles, level that served it
    — the deepest level any covered line had to go to).

    A line-straddling access touches every L1 line it covers, but only
    the lines that {e miss} in L1 descend to L2: each missing L1 line is
    one L2 access for the L2 line containing it (two missing L1 lines
    falling into the same 128-byte L2 line are two L2 accesses, the
    second of which normally hits — each L1 fill is its own L2 request).
    Lines that hit in L1 never reach L2, so partial hits neither inflate
    L2 traffic nor perturb L2's LRU state. The same rule applies at the
    L2→memory boundary: only L2-missing lines count as memory traffic. *)

val warm : t -> addr:int -> size:int -> is_float:bool -> unit
(** Update cache state — tags and LRU, in both levels, following the
    exact same line-descent rules as {!access} — without recording
    anything: no hit/miss counters, no access counts, no extra cycles.
    This is what the sampled simulator ({!Sampled}) does to accesses in
    the warm-up segment before each detailed window. *)

val drain_quiet : t -> int array -> int array -> int -> int -> unit
(** [drain_quiet t addrs metas lo hi] feeds ring events [lo, hi) (see
    {!Ring} for the packing) through the measurement path. Counters and
    cache state afterwards are byte-equal to calling {!access}
    once per event in order — pinned by a QCheck property — but the
    batch loop hoists the config constants and cache arrays once, runs
    an inlined copy of {!Cache.probe} over them, and skips
    the probe entirely when an event lands on the same line as its
    predecessor (the line is resident and most-recent; the memo
    replicates the probe's exact counter and LRU effects). This is the
    sink the exact-fidelity measure phase installs on its {!Ring}.

    It is also the PMU of profile collection: it counts first-level
    miss events under {!Pmu.record}'s rule and hands every sampled one
    to the sampler installed by {!set_sampler}. *)

val set_sampler : t -> period:int -> first:int -> (int -> int -> unit) -> unit
(** [set_sampler t ~period ~first f] makes {!drain_quiet} sample
    first-level miss events — integer accesses that miss L1 and
    floating-point ones that miss L2, their first level on Itanium (the
    rule of {!Pmu.record}): counting from now, the [first]-th event and every
    [period]-th one after it call [f iid latency]. Replaces any earlier
    sampler. Only {!drain_quiet} counts; the per-access entry points do
    not. {!Pmu.attach} is the usual caller. Raises [Invalid_argument]
    unless [period] and [first] are positive. *)

val miss_events : t -> int
(** First-level miss events {!drain_quiet} has counted so far. *)

val drain_warm : t -> int array -> int array -> int -> int -> unit
(** Batch counterpart of {!warm} with the sampled warm path's memo
    semantics: an event on the same single line as its predecessor is a
    complete no-op (matching {!Sampled}'s per-access warm memo — not
    even the LRU tick advances); all other events move tags and LRU
    like {!warm} without recording anything. *)

val correct_skip : t -> skipped:int -> observed:int -> unit
(** Apply {!Cache.correct_skip} to both levels and invalidate the drain
    memo (a synthetic insertion can evict the memoized line). Called by
    {!Sampled} when a skip segment's unreplayed accesses must be
    charged to the cache state before detailed measurement resumes. *)

val extra_cycles : t -> int
(** Accumulated latency beyond the base cycle of each access. *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t
val accesses : t -> int
val level_counts : t -> int * int * int
(** (served by L1, by L2, by memory). *)
