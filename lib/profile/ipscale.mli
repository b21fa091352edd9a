(** Inter-procedural scaling of static frequency estimates — the ISPBO
    scheme of §2.3.

    Local (per-routine) estimates cannot be compared across procedures: a
    routine called from a deeply nested loop is hotter than its local
    estimate says. Following the paper, execution counts are propagated
    top-down over the call graph with N_g(main) = 1 and

    {v N_g(f) = Σ over call sites c of f : E_g(c) = E_loc(c) · N_g(caller) v}

    (our N_loc is always 1 since local entry frequency is normalised).
    Recursion is handled by condensing strongly connected components:
    members of a cyclic SCC receive the component's external inflow times a
    fixed recursion factor. Functions never reached get N_g = 0, except
    address-taken functions (possible indirect-call targets), which fall
    back to 1.

    The final scaled count of block [b] in [f] is
    [C_loc(b) · N_g(f) ^ E] with the paper's separability exponent
    [E = 1.5] for ISPBO (E = 1 gives ISPBO.NO / ISPBO.W). *)

val default_exponent : float
(** 1.5 *)

type t

val compute :
  Ir.program -> local:(string -> Staticfreq.t) -> Callgraph.t -> t
(** [local f] must give the intra-procedural estimate for function [f]. *)

val global_count : t -> string -> float
(** N_g of a function. *)

val scaled_block_counts : ?exponent:float -> t -> string -> float array
(** [C_loc(b) · N_g(f)^E] for every block of the function; default exponent
    {!default_exponent}. *)
