(** Transformation heuristics — §2.4 of the paper.

    "Based on affinity, hotness, and type characteristics, the heuristics
    decide if and how to transform a type."

    The implemented policy follows the paper:
    - only legal (strict legality), dynamically allocated types with no
      by-value instances are candidates; single-object allocations were
      already invalidated by SMAL, realloc'd types are skipped
      (implementation limitation, documented in DESIGN.md);
    - dead and unused fields are always removed, except bit-fields
      ("removing bit-fields can result in more expensive access code
      sequences") and fields whose address escaped into a call;
    - peeling is "always performed as well" when structurally feasible;
    - otherwise splitting: fields with relative hotness below the threshold
      T_s (3% for PBO, 7.5% for ISPBO) are split out; at least two fields
      must split out (the link pointer must pay for itself) and at least
      one hot field must remain; the single most important criterion is
      hotness — hot fields stay in the hot section regardless of affinity;
    - field reordering happens only in the context of a rebuild: surviving
      hot fields are ordered by descending hotness;
    - if only dead fields were found, the type is rebuilt in place. *)

type plan = Transform.plan =
  | Split of Transform.split_spec
  | Peel of Transform.peel_spec
  | Rebuild of Transform.rebuild_spec
  | Pad of Transform.pad_spec
      (** trailing padding — never chosen by {!decide}; part of the
          autotuner's candidate space ([Slo_tune.Tune]) *)
  | Pool of Transform.pool_spec
      (** index-linked pool for a recursive (self-referential) type —
          chosen by {!decide} only under [~pool:true], for types
          {!Shape.analyze} proves poolable *)

type decision = {
  d_typ : string;
  d_plan : plan option;
  d_notes : string list;  (** why the type was (not) transformed *)
}

val threshold_for : Slo_profile.Weights.scheme -> float
(** The split threshold T_s in percent: 3.0 under PBO and PPBO, 7.5
    under every other scheme. *)

val statically_read : Ir.program -> (string * int, unit) Hashtbl.t
(** The (struct, field) pairs with at least one tagged load anywhere in
    the program text, regardless of profile weight. *)

type candidate = {
  c_decl : Structs.decl;
  c_info : Legality.info;
  c_graph : Affinity.graph;
  c_dead : int list;
      (** removable fields: never read — zero {e weighted} reads {b and}
          no static load at all (a field read only on never-profiled
          paths must survive) — not bit-fields, address never passed *)
  c_live : int list;      (** the other fields, in declaration order *)
  c_rel : float array;    (** {!Affinity.relative_hotness} *)
  c_by_hot : int list;    (** [c_live] hottest first (stable) *)
  c_peelable : bool;      (** {!Transform.peel_feasible} on its anchors *)
}
(** A struct the heuristics may transform, with the facts every plan
    for it is built from. *)

val candidate :
  Ir.program ->
  Legality.t ->
  Affinity.t ->
  static_reads:(string * int, unit) Hashtbl.t ->
  string ->
  (candidate, string) result
(** The one eligibility policy, shared by {!decide} and the autotuner
    ([Slo_tune.Tune]): strictly legal, dynamically allocated, no
    by-value instances, not realloc'd, with affinity data and at least
    one live field. [Error note] is the refusal {!decide} records in
    [d_notes]. *)

val peel_plan : candidate -> plan
(** Peel every live field into its own piece, dropping the dead ones. *)

val split_plan : ?order:int list -> candidate -> k:int -> plan
(** Keep the [k] hottest live fields in the hot part, laid out in
    [order] (a permutation of them; default hottest first); the other
    live fields go cold in declaration order. *)

val rebuild_plan : ?order:int list -> candidate -> plan
(** Rebuild in place with the live fields in [order] (default hottest
    first), dropping the dead ones. *)

val decide :
  ?threshold:float ->
  ?pool:bool ->
  Ir.program ->
  Legality.t ->
  Affinity.t ->
  scheme:Slo_profile.Weights.scheme ->
  decision list
(** One decision per struct type, sorted by type name. Each eligible
    {!candidate} is peeled when feasible, else split with [k] the number
    of live fields at or above the threshold when that leaves [k > 0]
    hot and at least two cold, else rebuilt hottest first when a field
    is dead. The default threshold comes from {!threshold_for}. [~pool]
    (default [false]) additionally runs {!Shape.analyze} and plans an
    index-linked pool for every strictly legal type it proves poolable
    — taking precedence over split/peel/rebuild for that type. It is
    opt-in so the paper's default decisions (and the golden tests
    pinned to them) never change. *)

val plans : decision list -> plan list
val apply : Ir.program -> plan list -> unit
(** Apply all plans (in place — pass a {!Ircopy.copy_program} copy). *)

val plan_summary : plan -> string
