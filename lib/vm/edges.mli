(** The PBO instrumentation: a dense table of taken-edge counters, one
    array per function.

    Pass a table to {!Backend.create} ([?edges]) and every backend
    counts into it: each compiled terminator and call prologue
    increments a slot precomputed when the program is prepared, and a
    fused superblock chain counts its interior jump edges once per run
    of the chain. The counts are identical on all backends. *)

type row = {
  nblocks : int;  (** the function's [next_block] *)
  counts : int array;  (** [(nblocks + 1) * nblocks] slots, see {!slot} *)
}

type t

val create : Ir.program -> t
(** A zeroed row for every function of the program. A name defined
    twice gets the row of its last definition — the one calls reach. *)

val row : t -> string -> row option

val slot : row -> src:int -> dst:int -> int
(** [(src + 1) * nblocks + dst]: the edge [src -> dst], with function
    entry ([src = -1]) in row 0. *)

val bump : row -> src:int -> dst:int -> unit
(** Count one traversal of [src -> dst]. *)
