(** Legality analysis — §2.2 of the paper.

    "During FE's legality and property analysis, several small and efficient
    tests are performed in a single pass over our compiler's intermediate
    representation to determine whether it is safe to transform a type. A
    type is called invalid if it cannot be transformed."

    The implemented tests are exactly the paper's, plus two the paper
    discusses in prose:

    - [CSTT] — a cast {e to} the type (tolerated when the source value is
      directly the matching allocation's result; casts of values returned by
      [void*] wrapper functions invalidate, as in the paper);
    - [CSTF] — a cast {e from} the type;
    - [ATKN] — a field's address is taken (tolerated when the address is
      only passed as a call argument, per the paper's stated assumption);
    - [LIBC] — the type escapes to a library function outside the
      compilation scope;
    - [IND]  — the type escapes to an indirect call;
    - [SMAL] — a dynamic allocation with a constant element count below the
      threshold A (default 1: single objects);
    - [MSET] — the type is touched by [memset]/[memcpy];
    - [NEST] — the type is nested in (or nests) another record type;
    - [SIZEOF] — [sizeof(type)] escaped into plain arithmetic (§2.2's
      "problematic constructs" discussion). A cast of an allocation the FE
      could not type (e.g. [malloc(16)] cast to a struct pointer, or a
      [void*]-returning wrapper) counts as CSTT, as in the paper.

    [~relax:true] tolerates CSTT, CSTF and ATKN — the paper's internal flag
    estimating "an upper bound of the benefits of Points-To" (Table 1's
    Relax column). *)

type reason =
  | CSTT | CSTF | ATKN | LIBC | IND | SMAL | MSET | NEST | SIZEOF

val reason_name : reason -> string

type witness = {
  w_reason : reason;
  w_fn : string option;   (** function the construct sits in, if any *)
  w_iid : int option;     (** offending instruction id, if any *)
  w_loc : Ir.Loc.t option;  (** source location, if known *)
  w_explain : string;     (** human-readable justification *)
}
(** Why a test fired: every {!reason} recorded on a type carries at least
    one witness naming the construct that triggered it. Declaration-level
    findings (NEST, the IPA escape aggregation) have no instruction or
    location; everything discovered in the FE instruction walk points at
    the exact instruction and its source position. *)

type alloc_site = { al_fn : string; al_iid : int; al_loc : Ir.Loc.t }

type attrs = {
  mutable has_global_var : bool;   (** a global of the struct type itself *)
  mutable has_local_var : bool;
  mutable has_global_ptr : bool;
  mutable has_local_ptr : bool;
  mutable has_static_array : bool;
  mutable dyn_alloc : bool;
  mutable freed : bool;
  mutable realloced : bool;
  mutable global_ptrs : string list;
      (** globals of type [t*] (peeling candidates' anchor pointers) *)
  mutable alloc_sites : alloc_site list;
      (** every allocation site of the type, in discovery order,
          deduplicated by (function, instruction id) — diagnostics render
          these as "allocated here" notes *)
  mutable escapes : string list;  (** defined functions the type escapes to *)
  mutable addr_passed_fields : int list;
      (** fields whose address was passed to a call (tolerated by ATKN but
          excluded from dead-field removal) *)
}

type info = {
  mutable invalid : reason list;
  mutable witnesses : witness list;  (** in discovery order *)
  attrs : attrs;
}

type t

val analyze : Ir.program -> t
(** Run the FE pass over every function and the IPA aggregation. The
    SMAL threshold is the paper's A = 1 ("allocation sites allocating
    arrays of size 1"). *)

val info : t -> string -> info
(** Raises [Not_found] for undefined types. *)

val attrs_of : t -> string -> attrs option
(** Like [info] but total. *)

val relaxable : reason -> bool
(** Whether the reason is tolerated under the paper's relaxed counting
    (CSTT, CSTF and ATKN are). *)

val is_legal : ?relax:bool -> t -> string -> bool
(** Whether the type passed all tests; with [relax], CSTT/CSTF/ATKN are
    tolerated. *)

val reasons : t -> string -> reason list

val witnesses : t -> string -> witness list
(** All witnesses recorded on the type, in discovery order; [[]] for
    unknown types. Non-empty whenever {!reasons} is. *)

val witnesses_for : t -> string -> reason -> witness list

val types : t -> string list
(** All analysed struct names, sorted. *)

val legal_count : ?relax:bool -> t -> int
