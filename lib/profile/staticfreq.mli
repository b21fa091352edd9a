(** Static branch probability and block frequency estimation — the SPBO
    scheme, after Wu and Larus [MICRO'94] as used by the paper §2.3:

    "If no profile information is available, edge frequencies in a routine
    are estimated with help of probabilities for source constructs. For
    example, a loop back edge is assumed to execute about 8 times on average
    and both branches of an if-then-else construct are assigned a 50%
    probability."

    Branch probabilities: a two-way branch where exactly one successor stays
    in the block's innermost loop (or is a back edge) gets the loop
    probability on the staying side — 0.88, or 0.93 when the loop contains
    floating-point work (1/(1-0.88) ≈ 8.3 iterations); all other branches
    are 50/50. The ISPBO.W experiment raises these to 0.95/0.98.

    Frequencies solve the linear flow equations freq(entry) = 1,
    freq(b) = Σ freq(u)·prob(u→b) by Gauss–Seidel sweeps in reverse
    postorder. Before the first sweep each block's predecessors (in
    [cfg.preds] order) and their edge probabilities are read into two
    arrays; a sweep sums freq(u)·prob(u→b) over them left to right, zero
    terms included. The solve stops after 300 sweeps or once no block
    changes by more than 1e-12. With all cyclic probabilities < 1 it
    tends to the fixed point of Wu–Larus's structural propagation, but
    the cap is part of the result: on the benchmark roster 110 of 254
    solves (SPBO and ISPBO.W probabilities) stop at 300 sweeps short of
    the tolerance, and the weights, hence the layout decisions, are those
    of the 300th sweep. *)

type probs = {
  loop_int : float;  (** staying probability for integer loops *)
  loop_fp : float;   (** staying probability for floating-point loops *)
}

val modified_probs : probs
(** 0.95 / 0.98 — the ISPBO.W experiment. *)

type t = {
  bfreq : float array;               (** per block id; entry = 1.0 *)
  efreq : int * int -> float;        (** frequency of a CFG edge *)
  eprob : int * int -> float;        (** branch probability of an edge *)
}

val estimate : ?probs:probs -> Cfg.t -> Loop.forest -> t
