(** The parallel evaluation engine behind [bench/main.exe].

    Each per-benchmark unit of work (compile → collect profile → analyze
    → transform → measure before/after) is a pure job dispatched to a
    {!Slo_exec.Pool} of worker domains; results are collected in roster
    order, so the rendered tables are byte-identical regardless of the
    worker count. A job that crashes surfaces as a per-entry error row
    (and an [error] field in the JSON record) instead of killing the run.

    Every run records per-phase wall-clock timings and machine-readable
    result rows, written as [_artifacts/BENCH.json] so that successive
    PRs have a perf trajectory to compare against. *)

type timings = {
  t_compile_ms : float;   (** parse + typecheck + lower + verify *)
  t_profile_ms : float;   (** train-profile collection; 0 on cache hit *)
  t_analyze_ms : float;   (** legality + affinity + decide *)
  t_transform_ms : float; (** copy + apply plans + verify *)
  t_measure_ms : float;   (** before/after VM runs *)
}

type record = {
  r_experiment : string;        (** "table1" | "table3" *)
  r_benchmark : string;
  r_scheme : string option;     (** [None] for analysis-only rows *)
  r_error : string option;      (** [Some exn] for a crashed job's row *)
  r_cycles : (int * int) option;       (** before, after *)
  r_steps : (int * int) option;        (** VM steps before, after *)
  r_l1_misses : (int * int) option;
  r_l2_misses : (int * int) option;
  r_accesses : (int * int) option;
      (** simulated accesses before, after — the denominator compare.exe
          needs to turn miss counts into miss rates *)
  r_speedup_pct : float option;
  r_timings : timings;
}

(* ---------------- shared caches ---------------- *)

val compile : Slo_suite.Suite.entry -> Ir.program * float
(** Memoized [Driver.compile ~verify:true] (every bench run doubles as a
    verifier sweep); returns the program and the original compile time in
    ms. Re-raises the stored exception for an entry that failed. Safe to
    call from worker domains; the cache itself is filled under a mutex
    (the table runners compile their roster serially first, so the
    workers only read it). *)

val train_profile :
  Slo_suite.Suite.entry -> Ir.program -> Slo_profile.Feedback.t * float
(** Memoized train-input profile collection ([Collect.collect
    ~args:e.train_args]), keyed by entry name with a per-entry lock so
    distinct entries collect in parallel. Returns the feedback and the
    collection time in ms (0.0 on a cache hit). This is the cache that
    Table 2 / Figure 2 / the ablation and Table 3's PBO rows share — the
    mcf train run is collected exactly once per process. *)

val reset_caches : unit -> unit
(** Drop the compile and profile caches (tests). *)

(* ---------------- runs ---------------- *)

type run

val create_run :
  ?backend:Slo_vm.Backend.t ->
  ?fidelity:Slo_cachesim.Sampled.fidelity ->
  jobs:int ->
  unit ->
  run
(** Start a run backed by a fresh pool of [jobs] worker domains.
    [backend] selects the VM engine for every measurement run (default
    {!Slo_vm.Backend.default}, the compiled one); all backends
    produce identical counters, so the choice only affects wall-clock
    speed — which the per-row [measure_msteps_per_s] and the table3
    throughput summary make visible. [fidelity] (default exact) selects
    the cache-simulation fidelity of every measurement
    ({!Slo_core.Driver.measure}); sampled runs trade bounded counter
    accuracy for measure-phase throughput, and [compare.exe] switches
    to an accuracy report when diffing artifacts of different
    fidelities. *)

val records : run -> record list
(** All records accumulated so far, in submission order. *)

val table1 : run -> roster:Slo_suite.Suite.entry list -> string
(** Types / transformable types (legality + points-to), one job per
    entry. Returns the rendered table (headers to print live are the
    caller's business); progress lines are printed at dispatch time. *)

val table3 : run -> roster:Slo_suite.Suite.entry list -> string
(** Transformed types and performance impact: one job per (entry,
    scheme) row, PBO for everyone plus the paper's no-profile ISPBO rows
    for mcf and moldyn. *)

val pool_table : run -> roster:Slo_suite.Suite.entry list -> string
(** Index-linked pool rows: one per self-referential record type in the
    roster. Shape-poolable types are rewritten with a [Pool] plan,
    validated by the differential oracle (output + per-field access
    conservation) and measured before/after under the cachesim; refuted
    types show their first uniqueness witness instead. Measured rows are
    recorded under experiment ["pool"]. *)

val git_rev : unit -> string
(** The checkout's short git revision, or ["unknown"] outside a git
    work tree; every artifact records it. *)

val write_json : run -> path:string -> unit
(** Write the accumulated records plus run metadata (jobs, git revision,
    wall-clock) as JSON to [path], creating the directory if needed. *)

val finish : run -> unit
(** Shut the worker pool down. *)

val json_of_record : ?with_timings:bool -> record -> Slo_util.Json.t
(** One record as JSON; [~with_timings:false] zeroes the timing block so
    runs can be compared for semantic equality. *)
