(** The layout autotuner: plan search with the cache simulator as cost
    oracle.

    The paper's advisor commits to one heuristic plan per scheme — one
    split point, one field order, peel-when-feasible. The plan space per
    struct is small, and the sampled cache simulation is cheap enough to
    search it outright:

    - {b Enumeration} ({!enumerate}): per struct that
      {!Slo_core.Heuristics.candidate} admits — the heuristics' own
      eligibility policy — the candidate closure is every split point
      over the hotness order × a beam of hot-field permutations
      (hotness order, a greedy affinity chain seeded from
      {!Slo_core.Affinity.edge_weight}, declaration order, adjacent
      transpositions) × trailing padding class (none / round to power
      of two / round to cache line), plus the peel when structurally
      feasible, rebuild-reorder variants, and pad-only candidates, all
      built with the heuristics' plan constructors. The heuristic plan
      is one point of this space. Dead fields are always removed, never
      searched. Multi-struct programs take the cartesian product,
      truncated at [max_candidates].
    - {b Scoring}: each candidate is applied to a fresh IR copy
      ({!Slo_core.Driver.transform_with_plans} [~verify:true]) and
      measured through {!Slo_core.Driver.measure} at [fidelity]
      (sampled by default). A candidate whose transform fails to verify
      or whose output diverges from the baseline run is rejected, not
      propagated.
    - {b Search} ({!search}): one analysis yields both the heuristic
      incumbent and the closure. Candidates run on one {!Slo_exec.Pool}
      of [jobs] worker domains; workers publish into a shared atomic
      best-so-far, ordered by (cycles, enumeration index) so the winner
      is independent of completion order. Candidates are explored in a
      deterministic seeded shuffle of the enumeration; a search that
      runs to completion returns byte-identical results at any [jobs]
      and any [seed].
    - {b Anytime}: [budget_ms] bounds the search, not the request — a
      candidate whose turn comes after expiry is skipped, and the best
      scored so far is returned. [t_complete] means every candidate was
      scored ([t_explored = t_total]). The baseline, the heuristic
      incumbent and the promotion re-score are budget-exempt, so even a
      zero budget returns the heuristic plan rather than an error.
    - {b Promotion}: the sampled winner is re-scored at exact fidelity
      and promoted only if strictly cheaper than the exact-scored
      heuristic incumbent; otherwise the heuristic plan is returned.
      The tuner therefore {e never} returns a plan scoring worse than
      the heuristic one. *)

type config = {
  scheme : Slo_profile.Weights.scheme;
  feedback : Slo_profile.Feedback.t option;
  args : int list;            (** program arguments for the measure runs *)
  beam : int;                 (** max field permutations per split point / rebuild *)
  max_candidates : int;       (** global candidate cap (product truncation) *)
  seed : int;                 (** seeds the exploration order *)
  budget_ms : float option;   (** anytime search budget, [None] = run to completion *)
  jobs : int;                 (** worker domains in the search pool *)
  fidelity : Slo_cachesim.Sampled.fidelity;  (** search-phase fidelity *)
}

val default_config :
  scheme:Slo_profile.Weights.scheme ->
  feedback:Slo_profile.Feedback.t option ->
  config
(** beam 4, max_candidates 256, seed 0, no budget, jobs 1, sampled
    default fidelity, no args. Every run is measured on
    {!Slo_core.Driver.measure}'s compiled engine and default hierarchy. *)

type result = {
  t_baseline_cycles : int;     (** untransformed program, exact fidelity *)
  t_heuristic : Slo_core.Heuristics.plan list;  (** the incumbent *)
  t_heuristic_cycles : int;    (** exact fidelity *)
  t_found : Slo_core.Heuristics.plan list;
      (** the promoted winner; equals [t_heuristic] unless strictly better *)
  t_found_cycles : int;        (** exact fidelity *)
  t_improved : bool;           (** [t_found_cycles < t_heuristic_cycles] *)
  t_explored : int;            (** candidates whose scoring completed *)
  t_rejected : int;            (** of those: verify failures / output mismatches *)
  t_total : int;               (** candidates enumerated *)
  t_complete : bool;           (** every candidate was scored: [t_explored = t_total] *)
  t_wall_ms : float;
}

val enumerate : Ir.program -> config -> Slo_core.Heuristics.plan list list
(** The candidate closure in canonical (unshuffled) order, each element
    one whole-program plan list. Deterministic; never includes the empty
    candidate. Exposed for tests and for reporting the space size. *)

val search : Ir.program -> config -> result
(** Run the search. The program itself is never mutated (candidates are
    applied to fresh copies). Raises [Invalid_argument] on a
    non-positive [beam], [max_candidates] or [jobs]; measurement
    exceptions from the {e baseline} run (e.g. bad [args]) propagate —
    candidate failures do not. *)
