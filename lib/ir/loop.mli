(** Loop structure graph via Havlak's algorithm.

    The paper's affinity analysis is loop-granular: "Our granularity for
    closeness is the loop level. The FE uses the loop optimizer's loop
    recognition, which is based on [Havlak 97], to build a loop structure
    graph." This module is that component. It handles irreducible regions
    (marking them) even though CFGs lowered from structured Mini-C are
    always reducible; the property tests exercise synthetic irreducible
    graphs. *)

type loop = {
  header : int;  (** header block id *)
  mutable body : int list;
      (** blocks whose {e innermost} loop is this one, including the header *)
  mutable children : loop list;
  mutable parent : loop option;
  mutable depth : int;  (** 1 for outermost loops *)
  mutable irreducible : bool;
}

type forest

val compute : Cfg.t -> forest

val top_level : forest -> loop list
val all_loops : forest -> loop list
(** Every loop, innermost first (safe order for frequency propagation). *)

val innermost : forest -> int -> loop option
(** Innermost loop containing the block, if any. A header's innermost loop
    is its own loop. *)

val all_blocks : loop -> int list
(** Blocks of the loop including nested loops' blocks. *)

val is_back_edge : forest -> int * int -> bool
(** [(src, dst)] is a back edge of some recognised loop. *)

