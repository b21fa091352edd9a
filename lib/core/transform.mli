(** The BE transformations of §2.1: structure splitting, structure peeling,
    dead field removal and field reordering.

    - {b Splitting} creates [S__hot] (surviving hot fields, reordered, plus
      a [__link] pointer) and [S__cold]; every allocation site of [S]
      allocates both arrays and runs an inserted link-initialisation loop
      (Figure 1b); cold-field accesses go through the link pointer, [free]
      frees both parts.
    - {b Peeling} creates one single-field record per live field and one
      companion global pointer per (anchor global, field); allocation sites
      fan out into per-piece allocations, and access chains
      [load P; ptradd i; fieldaddr f] are retargeted to the piece pointer
      (Figure 1c) — no link pointers.
    - {b Dead field removal} drops dead/unused fields from the rebuilt
      types and deletes stores to them.
    - {b Field reordering} is applied when a type is rebuilt: surviving hot
      fields are emitted in the order the plan specifies.

    All transformations mutate the program in place (transform a copy, see
    {!Ircopy.copy_program}) and finish with a {!Dce} cleanup. The original
    struct definition is removed from the table so that an access the
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

val split : Ir.program -> split_spec -> unit
val peel : Ir.program -> peel_spec -> unit
val rebuild : Ir.program -> rebuild_spec -> unit

val pad : Ir.program -> pad_spec -> unit
(** Append a [pd_bytes]-byte [char] array field named [__pad]
    to the struct — the autotuner's padding classes (rounding elements up
    to a power of two or a cache line so array elements stop straddling
    line boundaries). No access rewriting is needed: existing field
    indices are unchanged and allocation sizes follow the layout. Padding
    an already-padded struct replaces the previous pad field rather than
    stacking a second one. Raises [Invalid_argument] for [pd_bytes <= 0]
    or an unknown struct. *)

val pool : Ir.program -> pool_spec -> unit
(** Rewrite the type's single allocation site into a packed, index-linked
    pool (SoCal-style structure-of-arrays factorization of the link
    fields): the data fields stay together in [S__pool], each
    link field becomes its own parallel single-field struct
    ([S__link]), all allocated with the original element count and
    anchored in fresh [__pool_*] globals. Every [struct S *] value in the
    program is retyped to a plain element index ([long] — same size, so
    enclosing layouts are unchanged): the allocation result becomes index
    0, struct-pointer [ptradd] becomes integer addition, and each field
    access indexes the matching parallel array through its anchor. Field
    names are preserved so the oracle's per-field access conservation
    keeps holding. Raises [Invalid_argument] unless the spec names an
    existing struct, the link indices are self links, and the program has
    exactly one allocation site of the type; the deeper uniqueness
    conditions are {!Shape.analyze}'s job, and every rewrite is expected
    to be re-proven by the differential oracle. *)

val peel_feasible : Ir.program -> typ:string -> globals:string list -> bool
(** Structural feasibility of peeling: every access to the type must be a
    block-local chain anchored at one of the given global pointers, every
    allocation must flow straight into one of them, and the type must not
    be referenced from any other storage (locals, parameters, returns,
    other structs' fields). Chains that cross basic blocks make the type
    non-peelable — the framework then falls back to splitting, mirroring
    the paper's "implementation limitations". *)
