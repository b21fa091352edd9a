(** Call graph over a whole program, with Tarjan SCCs.

    Used by the inter-procedural scaling (ISPBO) to propagate execution
    counts top-down ("the propagation happens top-down over the call-graph
    with the assumption that the main procedure is called once"; recursion
    is handled by condensing strongly connected components), by the
    dead-store analysis to build callee summaries bottom-up, and by the
    shape analysis to decide whether an allocating function runs once.
    {!build} also records which functions have their address taken, the
    one place that fact is computed. *)

type call_site = {
  cs_caller : string;
  cs_callee : Ir.callee;
  cs_block : int;   (** block id within the caller *)
  cs_instr : int;   (** instruction id *)
}

type t

val build : Ir.program -> t

val call_sites : t -> string -> call_site list
(** Call sites appearing in the body of the named function. *)

val callers_of : t -> string -> call_site list
(** Direct call sites targeting the named (defined) function. *)

val sccs_topological : t -> string list list
(** SCCs of defined functions in topological order, callers before
    callees. Indirect and extern callees induce no edges. *)

val defined : t -> string list

val address_taken : t -> string -> bool
(** Whether some function's body takes the named function's address
    ([Iaddrfunc]): a possible target of any indirect call. *)
