(** Execution-backend selector: the tree-walking reference interpreter
    ({!Interp}) versus the closure-compiled engine ({!Compile}), plain
    or with superblock fusion.

    All backends are observationally identical — byte-identical output,
    identical step counts, identical hook event streams (and therefore
    identical cache-simulation counters) — a property pinned by the
    differential tests. [Closure] is the default; [Walk] is the
    semantic baseline; [Superblock] fuses unconditional-jump chains,
    address-producing instructions into the loads/stores consuming
    them, and block tails into terminators — the fastest engine. *)

exception Runtime_error of string

type result = Rt.result = {
  exit_code : int;
  output : string;
  steps : int;
}

type t = Walk | Closure | Superblock

val default : t
(** [Closure]. *)

val all : t list

val to_string : t -> string
(** ["walk"] / ["closure"] / ["superblock"] — the CLI spelling. *)

val of_string : string -> t option

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
    exclusive, see {!Compile.create}): the closure engines inline the
    event push; the [Walk] reference synthesizes a per-access push
    hook. Either way {!run} flushes the tail, so the ring sink sees the
    complete, identical event stream on every backend.

    [edges] (see {!Edges}) turns on edge profiling: every backend
    counts the same taken edges and function entries into the table,
    superblock fusion included.

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
