(** Field-sensitive, flow-insensitive pointer provenance analysis — the
    "more precise analysis" of §2.2.

    The paper tolerates CSTT/CSTF/ATKN wholesale to get an {e upper bound}
    on what its field-sensitive Points-To could recover ("if the address of
    a field is taken, Points-To may be able to derive that no other field
    can be accessed via this exposed address... If other fields can be
    accessed, Points-To will collapse the Points-To set for all fields").
    This module implements the real test: it tracks where pointers {e into}
    each record type come from (a specific field, the whole object, or a
    cast-derived raw view), propagates provenance flow-insensitively
    through registers, locals, globals, struct-typed memory and direct
    calls, and reports a type as {e collapsed} when some dereferenced
    pointer could reach more than one of its fields.

    A type whose only legality violations are CSTT/CSTF/ATKN and which is
    not collapsed is safe to transform under points-to reasoning; a
    collapsed type stays invalid even under the paper's relaxed counting,
    which is exactly the gap between the "Points-To" and "Relax" columns in
    our extended Table 1.

    Provenance items (a field, object or raw view of each struct) and
    cells are interned to dense ids once per call, and each instruction
    is compiled once to an operation with its constants resolved. Every
    set is [nw] words of one flat int array, one word while a program
    has at most 63 items. The fixpoint visits the operations round-robin
    in program order, skipping those whose input sets are empty; that
    order fixes which site each first event names. *)

type t

type event = {
  ev_fn : string;    (** function containing the construct *)
  ev_iid : int;      (** instruction id *)
  ev_loc : Ir.Loc.t;
  ev_what : string;  (** human-readable step description *)
}
(** One step of a provenance chain: a concrete instruction that moved a
    type towards collapse. *)

val analyze : Ir.program -> t

val collapsed : t -> string -> bool
(** Some exposed pointer into the type can reach multiple fields (or the
    provenance escaped the analysis). *)

val why_collapsed : t -> string -> event list
(** The provenance chain recorded when the type first collapsed — [[]]
    iff the type is not collapsed. An escape / [memset] / [memcpy]
    collapse is a single event naming the call; a raw-view collapse is
    the chain [origin; dereference]: where a typed pointer into the
    struct first degraded to a raw view (cast arithmetic or scalar
    indexing), then where that raw view was dereferenced. *)

val exposed_fields : t -> string -> int list
(** Fields of the type whose address is held in some dereferenced pointer
    cell (sorted). *)

val refutable : t -> string -> bool
(** [not (collapsed t s)] — the CSTT/CSTF/ATKN findings on this type are
    refuted by the points-to analysis. *)
