(** Execution-backend selector: the tree-walking reference interpreter
    ({!Interp}) versus the compiled engine ({!Compile}).

    Both backends are observationally identical — byte-identical
    output, identical step counts, identical event streams (and
    therefore identical cache-simulation counters) — a property pinned
    by the differential tests. [Superblock] is the default and the only
    compiled engine: register-direct closures with unconditional-jump
    chains, address producers and block tails fused. [Walk] is the
    semantic baseline. *)

exception Runtime_error of string

type result = Rt.result = {
  exit_code : int;
  output : string;
  steps : int;
}

type t = Walk | Superblock

val default : t
(** [Superblock]. *)

val all : t list

val to_string : t -> string
(** ["walk"] / ["superblock"] — the CLI spelling. *)

val of_string : string -> t option
(** The inverse of {!to_string}; ["closure"], the compiled engine's
    name before superblock fusion became unconditional, also parses to
    [Superblock], so scripts and daemon clients that spell it keep
    working. *)

type vm

val create :
  ?mem_hook:(int -> int -> bool -> bool -> int -> unit) ->
  ?edges:Edges.t ->
  ?bulk_hook:(int -> bool) ->
  ?ring:Slo_cachesim.Ring.t ->
  ?max_steps:int ->
  t ->
  Ir.program ->
  vm
(** [ring] is the batched alternative to [mem_hook] (mutually
    exclusive, see {!Compile.create}): the compiled engine inlines the
    event push; the [Walk] reference synthesizes a per-access push
    hook. Either way {!run} flushes the tail, so the ring sink sees the
    complete, identical event stream on every backend.

    [edges] (see {!Edges}) turns on edge profiling: every backend
    counts the same taken edges and function entries into the table.

    [bulk_hook] (see {!Compile.create}) lets a sampled-measurement
    consumer retire a whole block's accesses in O(1); the [Walk]
    backend ignores it (always per-access), which is sound because a
    successful bulk advance is defined as equivalent to feeding the
    same accesses one at a time. *)

val run : ?args:int list -> vm -> result

val run_program :
  ?mem_hook:(int -> int -> bool -> bool -> int -> unit) ->
  ?edges:Edges.t ->
  ?bulk_hook:(int -> bool) ->
  ?ring:Slo_cachesim.Ring.t ->
  ?max_steps:int ->
  ?args:int list ->
  t ->
  Ir.program ->
  result
