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

val dead_fields :
  Ir.program ->
  Legality.info ->
  Affinity.graph ->
  static_reads:(string * int, unit) Hashtbl.t ->
  int list
(** Removable fields: never read — with zero {e weighted} reads {b and}
    no static load at all (a field read only on never-profiled paths must
    survive) — not bit-fields, address never passed. *)

val decide :
  ?threshold:float ->
  ?pool:bool ->
  Ir.program ->
  Legality.t ->
  Affinity.t ->
  scheme:Slo_profile.Weights.scheme ->
  decision list
(** One decision per struct type, sorted by type name. The default
    threshold comes from {!threshold_for}. [~pool] (default [false])
    additionally runs {!Shape.analyze} and plans an index-linked pool
    for every strictly legal type it proves poolable — taking precedence
    over split/peel/rebuild for that type. It is opt-in so the paper's
    default decisions (and the golden tests pinned to them) never
    change. *)

val plans : decision list -> plan list
val apply : Ir.program -> plan list -> unit
(** Apply all plans (in place — pass a {!Ircopy.copy_program} copy). *)

val plan_summary : plan -> string
