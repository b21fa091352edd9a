(** Static IR well-formedness checking.

    The BE transformations mutate the IR in place; this pass machine-checks
    the invariants every IR consumer relies on, so a mis-rewritten access
    chain is reported as a structured error instead of silently corrupting
    the program (or only surfacing when a fuzz seed happens to execute
    it). It verifies that:

    - every struct named by a type annotation, a [fieldaddr], a load/store
      access tag or a memset/memcpy tag exists in the struct table, and
      every field index is in range — so there are no dangling references
      to the original struct after split/peel/rebuild;
    - field names are unique per struct and bit-fields sit on integers;
    - the CFG is consistent: unique in-range block ids, every terminator
      targets an existing block, no empty functions;
    - every register is in range and, if used, defined by some instruction
      of the function;
    - a definition that names a type (arithmetic, cast, load, pointer
      arithmetic, allocation, direct call) agrees with the type recorded
      for its register;
    - globals, locals and functions referenced by name exist; direct calls
      pass the declared number of arguments; parameters have stack slots;
    - instruction ids are unique program-wide. *)

type site = {
  in_func : string option;   (** [None] for program-level errors *)
  in_block : int option;
  in_instr : string option;  (** the offending instruction, printed *)
}

type kind =
  | Unknown_struct of string
  | Field_out_of_range of string * int  (** struct, field index *)
  | Duplicate_field of string * string  (** struct, field name *)
  | Bad_bitfield of string * string  (** struct, non-integer bit-field *)
  | Unknown_global of string
  | Duplicate_global of string
  | Unknown_local of string
  | Unknown_function of string
  | Duplicate_function of string
  | Empty_function
  | Duplicate_block of int
  | Block_out_of_range of int
  | Bad_branch_target of int
  | Reg_out_of_range of int
  | Undefined_register of int
  | Reg_type_mismatch of int * Irty.t * Irty.t
      (** register, its recorded type, the type its definition gives it *)
  | Arity_mismatch of string * int * int  (** callee, declared, passed *)
  | Param_without_slot of string
  | Duplicate_iid of int
  | Missing_loc
      (** an instruction carries no source location — only reported under
          [~require_locs:true], which the diagnostics pipeline uses to
          assert that location threading survived lowering and every
          transformation *)

type error = { site : site; kind : kind }

val report : error list -> string
(** One [WHERE: what went wrong] line per error. *)

val program : ?require_locs:bool -> Ir.program -> error list
(** All well-formedness violations, in discovery order (program-level
    first, then per function in program order). [~require_locs:true]
    (default [false]) additionally reports {!Missing_loc} for every
    instruction whose location is {!Ir.Loc.dummy}. *)

val ok : ?require_locs:bool -> Ir.program -> bool
(** [ok p] iff {!program} finds nothing. *)

exception Ill_formed of error list

val check : ?require_locs:bool -> Ir.program -> unit
(** Raise {!Ill_formed} with all errors if the program is malformed. *)
