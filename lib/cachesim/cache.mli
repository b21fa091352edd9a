(** A single set-associative cache level with LRU replacement.

    Pure tag simulation: the cache tracks which lines are resident, not
    their contents. Writes allocate like reads (write-allocate); write-back
    traffic is not modelled (documented simplification — it affects both the
    original and the transformed program equally).

    The record is exposed so the {!Hierarchy} drain loops can hoist its
    fields into registers and run their inlined copy of {!probe} over
    them without a cross-module call (which would not be inlined
    without flambda). Outside [lib/cachesim] the fields must be treated
    as read-only; all mutation goes through {!probe} (and
    {!access}/{!touch}), the drains, and {!correct_skip}. *)

type t = {
  cname : string;
  line : int;
  assoc : int;
  nsets : int;
  line_shift : int;    (** log2 of the (power-of-two) line size *)
  set_mask : int;      (** [nsets - 1] when [nsets] is a power of 2, else 0 *)
  set_shift : int;     (** log2 [nsets] when a power of 2, else -1 *)
  tags : int array;    (** [nsets * assoc]; -1 = invalid, < -1 = synthetic *)
  stamps : int array;  (** LRU timestamps, parallel to [tags] *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  ins : int array;
      (** per-set line insertions since the last {!correct_skip} — the
          footprint sketch the sampled skip correction extrapolates from *)
  carry : int array;   (** per-set division remainders of {!correct_skip} *)
  mutable synth_tag : int;
}

val create : name:string -> size:int -> line:int -> assoc:int -> t
(** [size] and [line] in bytes; [size] must be a multiple of
    [line * assoc]. Raises [Invalid_argument] otherwise. *)

val probe : t -> count:bool -> int -> int
(** [probe t ~count addr] touches the line containing [addr] and
    returns the index into [tags]/[stamps] of the way that now holds
    it: [way] on a hit, [lnot way] (negative) on a miss. Advances the
    tick and updates tags, LRU stamps and the [ins] sketch; bumps the
    hit/miss counters only when [count]. [addr] must be non-negative
    (the VM's address space); set indexing is shift/mask on
    power-of-two geometries, with a divide fallback for odd set
    counts. *)

val access : t -> addr:int -> bool
(** [probe ~count:true]: touch the line containing [addr]; returns
    [true] on hit. Updates LRU state and hit/miss counters. *)

val touch : t -> addr:int -> bool
(** [probe ~count:false]: {!access} minus the statistics — updates
    tags, LRU stamps and the internal tick exactly like {!access} and
    returns the same hit bool, but leaves the hit/miss counters
    untouched. The sampled simulator warms cache state this way so that
    detailed windows start warm without unrecorded traffic diluting the
    counters. *)

val correct_skip : t -> skipped:int -> observed:int -> unit
(** Extrapolate the per-set insertion rate recorded in the [ins] sketch
    over the [observed] accesses since the last correction onto
    [skipped] unreplayed accesses: each set evicts
    [skipped * ins / observed] LRU ways (capped at the associativity)
    and fills them with unique synthetic tags at MRU. Synthetic tags
    are negative and can never hit, so they age and displace resident
    lines exactly as the skipped insertions would have, without
    touching any counter. Resets the sketch; division remainders carry
    to the next call. No-op when [skipped] or [observed] is zero. *)

val line_size : t -> int

val line_shift : t -> int
(** [log2 (line_size t)] — for callers that split addresses into lines
    without dividing. *)

val name : t -> string
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
val clear : t -> unit
(** Invalidate all lines, reset statistics and the skip-correction
    sketch. *)
