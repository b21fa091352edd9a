(** Raw latency samples with exact percentiles.

    Samples go into a preallocated float array (grown by doubling when
    a run records more than expected), and percentiles are nearest-rank
    values over the raw samples: the result is always one of the
    recorded values, never a bucket edge. *)

type t

val create : int -> t
(** [create n] preallocates room for [n] samples. *)

val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile s p] is the nearest-rank [p]-th percentile, [p] in
    [\[0, 100\]]: the [ceil (p/100 * n)]-th smallest sample, with [p = 0]
    giving the minimum. Raises [Invalid_argument] when [s] is empty or
    [p] is out of range. *)

val quartiles : float array -> float * float * float
(** Lower quartile, median and upper quartile of at least two values,
    computed like Python's [statistics.quantiles(values, n=4)]
    (the default exclusive method). Raises [Invalid_argument] on fewer
    than two values. *)

val median : float array -> float
(** The middle value (mean of the two middle values for an even count).
    Raises [Invalid_argument] when empty. *)
