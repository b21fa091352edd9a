(** The BE transformations of §2.1 — structure splitting, structure
    peeling, dead field removal and field reordering — plus the
    autotuner's trailing padding and the index-linked pool, all as one
    rewrite.

    Every {!plan} compiles to a {e layout map} of its struct: for each old
    field, either dead, or the piece it moves to, its index there, and the
    path an access takes from a pointer to the old struct:
    - {b direct}, the base itself: rebuild (dead field removal plus
      reordering, same type name), pad, and split's hot part [S__hot];
    - {b through the link}: split's cold part [S__cold], reached through
      the [__link] pointer appended to the hot part (Figure 1b);
    - {b through an anchor global}, plus an optional element index:
      peeling's single-field pieces [S__f], reached through the companion
      [G__f] of the anchor global [G] the access chain
      [load G; ptradd i; fieldaddr f] was loaded from, at index [i]
      (Figure 1c); the pool's parallel arrays, reached through fresh
      [__pool_*] globals indexed by the base itself.

    One walk per function applies any map: it retargets field addresses
    by path and access tags by slot, deletes stores through a dead
    field's address, fans allocations and [free]s of the old struct out
    over its pieces, and finishes with a {!Dce} cleanup; a final pass
    substitutes what a pointer to the old struct has become in every type
    annotation. A map that moves no field (a pad) rewrites nothing.

    The program is mutated in place (transform a copy, see
    {!Ircopy.copy_program}). The original struct definition is removed
    from the table whenever its pointers change, so that an access the
    rewrite missed fails loudly in the VM. *)

type split_spec = {
  s_typ : string;
  s_hot : int list;   (** surviving hot fields, in desired new order *)
  s_cold : int list;  (** fields split out behind the link pointer *)
  s_dead : int list;  (** fields removed entirely *)
}

type peel_spec = {
  p_typ : string;
  p_live : int list;  (** fields that become single-field pieces *)
  p_dead : int list;
  p_globals : string list;  (** the anchor global pointers *)
}

type rebuild_spec = {
  r_typ : string;
  r_order : int list;  (** surviving fields in new declaration order *)
  r_dead : int list;
}

type pad_spec = {
  pd_typ : string;
  pd_bytes : int;  (** trailing pad bytes, > 0 *)
}

type pool_spec = {
  po_typ : string;
  po_links : int list;  (** self-link field indices to factor out *)
}

val link_field_name : string
(** ["__link"] *)

val hot_name : string -> string
val cold_name : string -> string

type plan =
  | Split of split_spec
      (** [S__hot] (surviving hot fields, reordered, plus a [__link]
          pointer) and [S__cold]; every allocation site of [S] allocates
          both arrays and runs an inserted link-initialisation loop, and
          [free] frees both parts *)
  | Peel of peel_spec
      (** one single-field record per live field and one companion global
          pointer per (anchor global, field); allocation sites fan out
          into per-piece allocations at the anchor store — no link
          pointers *)
  | Rebuild of rebuild_spec
      (** dead field removal and reordering under the same type name *)
  | Pad of pad_spec
      (** append a [pd_bytes]-byte [char] array field named [__pad] — the
          autotuner's padding classes (rounding elements up to a power of
          two or a cache line so array elements stop straddling line
          boundaries). Existing field indices are unchanged and
          allocation sizes follow the layout, so nothing is rewritten.
          Padding an already-padded struct replaces the previous pad
          field rather than stacking a second one. *)
  | Pool of pool_spec
      (** the type's single allocation site becomes a packed,
          index-linked pool (SoCal-style structure-of-arrays
          factorization of the link fields): the data fields stay
          together in [S__pool], each link field becomes its own parallel
          single-field struct ([S__link]), all allocated with the original
          element count and anchored in fresh [__pool_*] globals. Every
          [struct S *] value in the program is retyped to a plain element
          index ([long] — same size, so enclosing layouts are
          unchanged): the allocation result becomes index 0,
          struct-pointer [ptradd] becomes integer addition, and each
          field access indexes the matching parallel array through its
          anchor. Field names are preserved so the oracle's per-field
          access conservation keeps holding. The deeper uniqueness
          conditions are {!Shape.analyze}'s job, and every rewrite is
          expected to be re-proven by the differential oracle. *)

val apply : Ir.program -> plan -> unit
(** Compile the plan into its layout map and rewrite the program with it.
    Raises [Invalid_argument "Transform.KIND: unknown struct S"] when the
    plan names no struct of the program, where [KIND] is the plan's kind
    ([split], [peel], [rebuild], [pad], [pool]). A pad also rejects
    [pd_bytes <= 0]; a pool rejects an empty or out-of-range link list, a
    link that is no self link, and anything but exactly one allocation
    site of the type. *)

val peel_feasible : Ir.program -> typ:string -> globals:string list -> bool
(** Structural feasibility of peeling: every access to the type must be a
    block-local chain anchored at one of the given global pointers, every
    allocation must flow straight into one of them, and the type must not
    be referenced from any other storage (locals, parameters, returns,
    other structs' fields). Chains that cross basic blocks make the type
    non-peelable — the framework then falls back to splitting, mirroring
    the paper's "implementation limitations". *)
