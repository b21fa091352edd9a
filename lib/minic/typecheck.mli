(** Type checker for Mini-C.

    Annotates every expression's [ety] field in place and returns the global
    environment (struct table, globals, functions, externs) used by the
    lowering pass.

    Checking is deliberately permissive in the places C is permissive —
    implicit conversions between arithmetic types, [void*] to and from any
    object pointer — because the paper's legality analysis, not the type
    system, is what rejects layout-hostile programs. It is strict about
    everything that would indicate a malformed program: unknown identifiers,
    unknown struct tags or fields, calling non-functions, field access on
    non-structs. *)

exception Error of string * Loc.t

type env = {
  structs : (string, Ast.struct_decl) Hashtbl.t;
  globals : (string, Ast.ty) Hashtbl.t;
  funcs : (string, Ast.func_decl) Hashtbl.t;
  externs : (string, Ast.extern_decl) Hashtbl.t;
}

val builtins : (string * Ast.ty) list
(** The functions the runtime provides, each with its return type:
    allocation ([malloc], [calloc], [realloc], [free]), memory streaming
    ([memset], [memcpy]), I/O ([printf], [putint], [putfloat]), math
    ([sqrt], [exp], [log], [fabs], [pow], [floor]), and a deterministic
    [rand] / [srand]. Any arguments are accepted. This is the one table:
    the checker types builtin calls from it and {!Slo_ir}'s register
    types read a call's result type from it. *)

val is_builtin : string -> bool
(** Whether the name is in {!builtins}. *)

val check : Ast.program -> env
(** Check a program; raises {!Error} on the first type error. *)

val field_index : env -> string -> string -> int
(** [field_index env struct_name field_name] is the declaration index of the
    field; raises {!Error} (with a dummy location) if absent. *)
