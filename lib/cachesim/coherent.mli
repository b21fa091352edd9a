(** A minimal two-core coherence model (MESI-lite) for the paper's
    multithreaded observation (§2.4):

    "there is a performance penalty if two threads access (write) disjoint
    hot structure fields on the same cache line due to costs associated
    with cache coherency. These fields should be separated to different
    cache lines instead of being moved together."

    Each core has a private L1 tag array; a write invalidates the line in
    the other core, and a subsequent access there pays the coherence
    latency. Only what the false-sharing experiment needs is modelled. *)

type t

val create : unit -> t
(** 64-byte lines, 256 lines per core, 60-cycle invalidation-refill
    latency. *)

val access : t -> core:int -> addr:int -> write:bool -> int
(** Returns the latency of the access (1 on a private hit). [core] is 0
    or 1. *)

val invalidations : t -> int
(** Cross-core invalidations observed (the false-sharing signal). *)

val total_latency : t -> int
