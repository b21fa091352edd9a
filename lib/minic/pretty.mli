(** Source pretty-printer for Mini-C.

    Emits compilable Mini-C. The parser/printer pair round-trips: parsing
    the printed output yields a structurally identical program (modulo
    locations); the property-based tests rely on this. *)

val string_of_expr : Ast.expr -> string
val string_of_program : Ast.program -> string
