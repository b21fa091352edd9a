(** Recursive-shape and ownership analysis for linked structures.

    The paper's transformations only reshape array-of-struct allocation
    sites; mcf's node list is the pointer-chasing shape that Marmoset and
    SoCal optimize with pool allocation + structure-of-arrays
    factorization. This module is the static side of that family: it
    classifies every {e self-referential} record type (one with at least
    one field of type [struct S *] inside [struct S] itself — a link
    field) as {e poolable} or not.

    A type is poolable when its cells can be relocated into a packed,
    index-linked pool (a [Pool] plan of {!Transform.apply}): every
    [struct S *] value in the program can be reinterpreted as an element
    index, which requires

    - a single dominating allocation site (one [malloc]/[calloc] of an
      array of [S], executed at most once — not in a loop, not in a
      function that can run twice, never [realloc]ed or [free]d);
    - no by-value instances (globals, locals, or other records embedding
      [S] directly — only pointers);
    - {e link-field uniqueness}, proven by a forward dataflow over the
      {!Dataflow} functor: every pointer to [S] descends from the
      allocation site through [ptradd]/copies/properly-typed memory
      cells, link cells are written only with such pointers (never a
      null or integer constant — index 0 is a valid cell), pointers to
      [S] never escape into casts, raw arithmetic, or calls outside the
      compilation scope, and interior pointers (field addresses) never
      outlive the load/store that forms them.

    Each refuted condition is recorded as a witness in the PR-5 legality
    style (reason, function, instruction, location, explanation) so
    [slopt check] can render "why not" with carets; a poolable verdict
    carries the allocation site as its uniqueness witness. The
    remaining dynamic gap (e.g. an allocating function that the call
    graph cannot prove runs once) is covered by the differential oracle,
    which re-proves every pool rewrite byte-for-byte. *)

type reason =
  | NOALLOC    (** never dynamically allocated *)
  | MULTI      (** more than one allocation site *)
  | REALLOC    (** the site uses realloc *)
  | LOOPALLOC  (** the single site sits inside a loop *)
  | REDOALLOC  (** the allocating function may execute more than once *)
  | BYVAL      (** a by-value instance exists (global/local/embedded) *)
  | FREED      (** cells are freed *)
  | MEMOP      (** memset/memcpy touches the type *)
  | SIZEOF     (** sizeof escaped into plain arithmetic *)
  | NULLLINK   (** a constant (null) mixes with pool pointers — index 0
                   is a valid cell, so null tests/stores are unsound *)
  | MIXED      (** pool and non-pool values merge in one register/cell *)
  | INTERIOR   (** an interior (field-address) pointer escapes its
                   forming load/store *)
  | ESCAPE     (** a pool pointer leaves the compilation scope *)
  | RAWACC     (** raw (untyped/unselected) memory access through a pool
                   pointer *)

val reason_name : reason -> string

type witness = {
  sw_reason : reason;
  sw_fn : string option;    (** function containing the construct *)
  sw_iid : int option;      (** offending instruction id *)
  sw_loc : Ir.Loc.t option; (** source location, if known *)
  sw_explain : string;      (** human-readable justification *)
}

type site = { sp_fn : string; sp_iid : int; sp_loc : Ir.Loc.t }

type verdict = {
  v_typ : string;
  v_links : int list;          (** link-field indices, ascending *)
  v_link_names : string list;  (** their field names, same order *)
  v_poolable : bool;
  v_alloc : site option;
      (** the allocation site when the program has exactly one *)
  v_witnesses : witness list;  (** refutations; [[]] iff poolable *)
}

type t

val analyze : Ir.program -> t

val verdicts : t -> verdict list
(** One verdict per self-referential struct, sorted by type name.
    Types without a self link are not classified at all. *)

val verdict : t -> string -> verdict option
val poolable : t -> string -> bool
val links : t -> string -> int list
(** Link-field indices of a poolable type; [[]] otherwise. *)
