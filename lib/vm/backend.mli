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
  ?edges:Edges.t ->
  ?ring:Slo_cachesim.Ring.t ->
  ?max_steps:int ->
  t ->
  Ir.program ->
  vm
(** [ring] receives the run's memory events, the only way they leave
    the VM: the compiled engine inlines each push, the [Walk]
    reference pushes through {!Slo_cachesim.Ring.push}. Both push the
    same meta words, chunk memset/memcpy the same way, drop a stale
    tail before a run and flush their tail on every exit, so the
    ring's sink sees the complete, identical event stream on every
    backend.

    [edges] (see {!Edges}) turns on edge profiling: every backend
    counts the same taken edges and function entries into the table. *)

val run : ?args:int list -> vm -> result

val run_program :
  ?edges:Edges.t ->
  ?ring:Slo_cachesim.Ring.t ->
  ?max_steps:int ->
  ?args:int list ->
  t ->
  Ir.program ->
  result
