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
  t_profile_ms : float;   (** train-profile collection; 0 on a memo hit *)
  t_analyze_ms : float;   (** legality + affinity + decide *)
  t_transform_ms : float; (** copy + apply plans + verify *)
  t_measure_ms : float;   (** before/after VM runs *)
}

type record = {
  r_experiment : string;        (** "table1" | "table3" | "pool" *)
  r_benchmark : string;
  r_scheme : string option;     (** [None] for analysis-only and pool rows *)
  r_error : string option;      (** [Some exn] for a crashed job's row *)
  r_measured :
    (Slo_core.Driver.measurement * Slo_core.Driver.measurement) option;
      (** before, after; [None] for analysis-only and crashed rows. The
          JSON row's cycles, steps, misses, accesses (the denominator
          compare.exe needs to turn miss counts into miss rates) and
          speedup all derive from it *)
  r_timings : timings;
}

(* ---------------- the memo ---------------- *)

(** Every compile and every profile the harness runs goes through one
    memo, keyed by the bytes that determine the result, so two entries
    with the same name and different sources never share a program or a
    profile. Each key computes once: concurrent callers of a key wait for
    the first one's result, and distinct keys compute in parallel. A
    failure is stored and re-raised to every caller. Both are safe to
    call from worker domains. *)

val compile : Slo_suite.Suite.entry -> Ir.program * float
(** [Driver.compile ~verify:true] of the entry's source (every bench run
    doubles as a verifier sweep), keyed by the source bytes; returns the
    program and the original compile time in ms, on a hit too. *)

val profile :
  ?args:int list ->
  ?instrument:bool ->
  Slo_suite.Suite.entry ->
  Slo_profile.Feedback.t * float
(** [Collect.collect ~args ~instrument] on the entry's {!compile}d
    program, keyed by source bytes x [args] (default the entry's train
    args) x [instrument] (default [true]). Returns the feedback and the
    collection time in ms, 0.0 on a hit. Table 2, Figure 2, the
    ablation, the case studies, Table 3's PBO rows and tunebench share
    it, so mcf's train run is collected once per process. *)

(* ---------------- runs ---------------- *)

type run

val create_run :
  ?fidelity:Slo_cachesim.Sampled.fidelity ->
  jobs:int ->
  unit ->
  run
(** Start a run backed by a fresh pool of [jobs] worker domains. Every
    measurement runs on the compiled VM engine; the per-row
    [measure_msteps_per_s] and the table3 throughput summary report its
    speed. [fidelity] (default exact) selects
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
