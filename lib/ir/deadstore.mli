(** Flow-sensitive dead-store / never-read-field analysis.

    The advisor's dead-field advice ("field [f] is never read") is
    flow-insensitive: it only needs the set of tagged loads. This module
    upgrades it to per-site advice — {e this} store at {e this} source
    location writes a value no execution can observe — by running a
    backward may-read-later analysis over each function's CFG with
    {!Dataflow}, seeded interprocedurally with transitive may-read
    summaries from {!Callgraph}.

    The analysis is deliberately conservative, in the same way the
    legality tests are:

    - a field whose address escapes a plain load/store addressing
      position (ATKN-style uses, including being passed to a call) is
      treated as readable everywhere and never reported;
    - fields of types reachable by extern / builtin / indirect calls are
      treated as read by every such call;
    - [memcpy]/[memset] tagged with a struct count as reading all its
      fields;
    - only [main] gets an empty may-read set at exit — any other
      function's caller may read any field after it returns;
    - stores do not kill the may-read fact: telling two objects of the
      same type apart would need a points-to query this layer
      deliberately avoids, so a store overwritten by a later store to
      the same field is only reported when no read of the field follows
      on any path at all.

    A reported store is therefore dead along {e every} path to program
    exit, not merely unprofiled.

    Each (struct, field) pair is interned to a dense id once per call,
    and every fact is a bitset of ids (one machine word while the
    program declares at most 63 fields). Every transfer only adds
    fields, so each block's gen set is computed once and the
    per-function solve runs on {!Dataflow.Make} over that bitset
    lattice. The may-read summaries are built callees first over
    {!Callgraph.sccs_topological}, one per SCC. *)

type store = {
  ds_struct : string;
  ds_field : int;
  ds_fn : string;       (** function containing the store *)
  ds_iid : int;         (** instruction id of the store *)
  ds_loc : Ir.Loc.t;
  ds_never_read : bool;
      (** no tagged load of this field exists anywhere in the program:
          the store is dead flow-insensitively, and the field itself is
          write-only *)
}

val analyze : Ir.program -> store list
(** All dead stores, ordered by (function, instruction id). *)

val never_read_fields : store list -> (string * int) list
(** The (struct, field) pairs that are written but never read anywhere
    ([ds_never_read] witnesses), sorted and deduplicated. *)
