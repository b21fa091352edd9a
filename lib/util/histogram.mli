(** A fixed-bucket latency histogram for the advice server's [stats]
    reply.

    Bucket boundaries are a fixed geometric ladder from 1 µs to 60 s
    (about 6 buckets per decade over the 0.1 ms – 100 ms serving
    range, coarser at the extremes), so recording is a binary search plus
    an increment — no allocation, no per-sample storage — and the
    histogram stays O(1) in memory no matter how many requests it has
    seen. Percentiles are therefore estimates: {!percentile} returns
    the upper bound of the bucket containing the requested rank, capped
    at the largest sample, i.e. a conservative (never under-reported)
    latency that no request exceeded. Exact [min]/[max]/sum are tracked
    on the side. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** [record t ms] adds one sample, in milliseconds. Negative samples
    count into the first bucket; samples beyond the last bound land in
    an overflow bucket whose "upper bound" is the exact observed
    maximum. *)

val count : t -> int
val sum_ms : t -> float
val max_ms : t -> float
(** Exact maximum; [0.0] when empty. *)

val mean_ms : t -> float
(** Exact mean; [0.0] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]: the upper bound of the bucket
    holding the sample of rank [ceil (p/100 * count)], or the observed
    max when that is lower (always for the overflow bucket); [0.0] when
    empty. Raises
    [Invalid_argument] for [p] outside [0..100]. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s counts into [dst] (the load generator
    merges per-client histograms this way). *)
