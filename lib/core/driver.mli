(** End-to-end pipeline: compile → (optional PBO collect) → analyze →
    decide → transform → measure. The CLI, the daemon, bench, the tuner
    and the examples all run these stages and report their failures as
    one {!error}.

    This is the reproduction's equivalent of the paper's FE / IPA / BE
    phases glued together by the linker plug-in. The measurement side runs
    both the original and the transformed program in the VM over the cache
    hierarchy and reports a simple in-order cycle count
    (instructions + memory latency beyond an L1 hit), from which Table 3's
    performance-effect percentages are derived as speedup
    [(cycles_before / cycles_after - 1) * 100]. *)

type measurement = {
  m_result : Slo_vm.Interp.result;
  m_cycles : int;       (** steps + cache extra cycles *)
  m_l1_misses : int;
  m_l2_misses : int;
  m_accesses : int;
}

type phase_ms = {
  ph_analyze_ms : float;    (** legality + affinity + decide *)
  ph_transform_ms : float;  (** copy + apply plans (+ verify) *)
  ph_measure_ms : float;    (** both before/after VM runs *)
}
(** Wall-clock per-phase timings of one {!evaluate} call, in
    milliseconds, for the bench harness's perf-trajectory records. *)

type evaluation = {
  e_before : measurement;
  e_after : measurement;
  e_decisions : Heuristics.decision list;
  e_transformed : Ir.program;
  e_speedup_pct : float;
  e_phases : phase_ms;
}

type decided = {
  legality : Legality.t;
  affinity : Affinity.t;
  decisions : Heuristics.decision list;
}

(** One constructor per failing stage. *)
type error =
  | Syntax of { lexical : bool; msg : string; loc : Slo_minic.Loc.t }
  | Type of string * Slo_minic.Loc.t
  | Unsupported of string * Slo_minic.Loc.t
  | Ill_formed of Verify.error list
  | Runtime of string  (** a VM fault *)
  | Dcache_scheme of Slo_profile.Weights.scheme
      (** a d-cache scheme where block weights are needed *)

exception Not_block_weights of Slo_profile.Weights.scheme
(** Raised by {!feedback_for} for a d-cache scheme. *)

val compile : ?verify:bool -> string -> Ir.program
(** Parse, type-check and lower a Mini-C source. With [~verify:true]
    (default false) the lowered IR is checked with {!Verify.check}, which
    raises {!Verify.Ill_formed} on a malformed program. *)

val measure :
  ?args:int list ->
  ?config:Slo_cachesim.Hierarchy.config ->
  ?fidelity:Slo_cachesim.Sampled.fidelity ->
  ?pipeline:bool ->
  Ir.program ->
  measurement
(** Run on the compiled VM engine ({!Slo_vm.Backend.default}) under
    the cache hierarchy and report cycles/miss counters. The
    tree-walker is not selectable here: it yields identical
    measurements only slower, so it is kept as the differential
    oracle's reference ([Slo_suite.Oracle.compare_backends]).

    [pipeline] forces the drain of the ring batches onto a worker
    domain overlapped with VM execution ([true]) or inline ([false]),
    via {!Slo_cachesim.Drainer.run}, at either fidelity; omitted, the
    run pipelines once {!Slo_exec.Cores} has a spare core free.
    Counters are byte-equal to the serial drain either way.

    [fidelity] (default [Exact]) selects full-trace simulation or
    {!Slo_cachesim.Sampled} windows with functional warming in between.
    Under [Sampled] the miss and cycle numbers are estimates (window
    counters scaled to the whole run, with accuracy bounds pinned by
    the roster accuracy harness); [m_result] — output, exit code,
    steps — is exact in every fidelity. *)

val analyze :
  Ir.program ->
  scheme:Slo_profile.Weights.scheme ->
  feedback:Slo_profile.Feedback.t option ->
  Legality.t * Affinity.t

val feedback_for :
  ?args:int list ->
  Ir.program ->
  scheme:Slo_profile.Weights.scheme ->
  Slo_profile.Feedback.t option
(** The feedback rule for a run given no feedback file: a profile-based
    scheme collects a profile on [args] (default none), a static one
    gets [None]. *)

val decide :
  ?pool:bool ->
  Ir.program ->
  scheme:Slo_profile.Weights.scheme ->
  feedback:Slo_profile.Feedback.t option ->
  decided
(** {!analyze}, then {!Heuristics.decide}. Raises [Invalid_argument] if
    a profile-based scheme is given no feedback. *)

val advise :
  ?pool:bool ->
  Ir.program ->
  scheme:Slo_profile.Weights.scheme ->
  feedback:Slo_profile.Feedback.t option ->
  Advisor.t
(** {!decide}, then the advisor; with feedback, its PMU samples are
    matched to the program for the report's d-cache lines. *)

val guard : (unit -> 'a) -> ('a, error) result
(** Run a stage, turning exactly the exceptions behind {!error} into
    [Error]; anything else propagates. *)

val render_error : ?file:string -> error -> string
(** [FILE:LINE:COL: ...] or [FILE: ...]; no [FILE] prefix without
    [file]. *)

val transform_with_plans :
  ?verify:bool -> Ir.program -> Heuristics.plan list -> Ir.program
(** Apply plans to a fresh copy; the input program is untouched. With
    [~verify:true] (default false) the rewritten IR is checked with
    {!Verify.check}, raising {!Verify.Ill_formed} when a transformation
    left dangling references behind. *)

val evaluate :
  ?args:int list ->
  ?config:Slo_cachesim.Hierarchy.config ->
  ?pool:bool ->
  ?verify:bool ->
  ?fidelity:Slo_cachesim.Sampled.fidelity ->
  scheme:Slo_profile.Weights.scheme ->
  feedback:Slo_profile.Feedback.t option ->
  Ir.program ->
  evaluation
(** Full pipeline on an already-compiled program: {!decide}, transform,
    measure. [~pool] (default false) forwards to {!Heuristics.decide}:
    shape-proven recursive types are planned as index-linked pools.
    The two runs are measured in order, original first, so when both
    fault the original's fault is raised; each run's drain takes a
    spare core when one is free (see {!measure}). [fidelity] selects
    their simulation fidelity (default exact — see
    {!measure}; sampled fidelity affects only the measurement numbers,
    never the analysis or the transformation). When no decision carries a plan the
    transformed program is an unmodified copy, so it is not measured
    again: [e_after] is [e_before]. Raises [Invalid_argument] if a
    profile-based scheme is given no feedback, and {!Verify.Ill_formed}
    if [~verify:true] and the transformed IR is malformed. *)

val speedup_pct : before:measurement -> after:measurement -> float
(** [(cycles_before / cycles_after - 1) * 100]. Raises
    [Invalid_argument] if either cycle count is zero or negative — that
    means a broken measurement, and silently reporting 0.0 would mask
    it. *)
