(** The accuracy rule sampled cache simulation is held to against exact
    simulation, written once for [bench/compare.exe] (whose accuracy
    mode [make accuracy] runs on the full Table 3 roster) and the
    tier-1 roster accuracy tests. *)

val l1_bound_pp : float
(** Largest allowed |Δ| of an L1 miss rate, in percentage points: 0.5. *)

val l2_bound_pp : float
(** Largest allowed |Δ| of an L2 miss rate, in percentage points: 1.0. *)

val speedup_zero_pct : float
(** A |speedup| at or below this many percent counts as zero: 0.1. *)

val sign_of : float -> int
(** [-1], [0] or [1], with [|x| <= speedup_zero_pct] as [0]. *)

val sign_flip : float -> float -> bool
(** [sign_flip a b]: do two measured speedups point different ways?
    Only strictly opposite signs, or a value in the dead zone against
    one clearing twice the band, count as a flip. Two values straddling
    the dead-zone edge by a hair (say +0.099 and +0.101) agree for
    every decision the measurement feeds. *)
