(** The weighting-scheme registry of §2.3.

    "How weights are assigned to the affinity groups is what differentiates
    the various weighting mechanisms we experimented with." A scheme turns a
    program (plus, for the profile-based schemes, a feedback file) into
    per-function, per-block execution weights; the affinity and hotness
    analysis is scheme-agnostic.

    The d-cache schemes (DMISS, DLAT, DMISS.NO) are not block-weight
    schemes — they attribute PMU samples directly to fields — and are
    handled by the advisor; {!block_weights} rejects them. *)

type scheme =
  | PBO        (** edge profile from the training input *)
  | PPBO       (** "perfect" PBO: profile from the reference input *)
  | SPBO       (** Wu–Larus static estimation, local to each routine *)
  | ISPBO      (** inter-procedurally scaled SPBO, exponent E = 1.5 *)
  | ISPBO_NO   (** ISPBO without the exponent *)
  | ISPBO_W    (** raised back-edge probabilities instead of the exponent *)
  | DMISS      (** sampled d-cache miss counts per field *)
  | DLAT       (** sampled d-cache latencies per field *)
  | DMISS_NO   (** DMISS collected without instrumentation *)

val all : scheme list
val name : scheme -> string
val is_dcache : scheme -> bool
val needs_profile : scheme -> bool

type block_weights = (string, float array) Hashtbl.t
(** Function name to per-block-id weight. *)

val block_weights :
  Ir.program -> scheme -> feedback:Feedback.t option -> block_weights
(** Raises [Invalid_argument] for d-cache schemes, or if a profile-based
    scheme is given no feedback. *)

