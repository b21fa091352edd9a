(** Hand-written lexer for Mini-C.

    Supports line ([//]) and block ([/* */]) comments, decimal and
    hexadecimal integer literals, floating literals (with exponents),
    character literals (lexed as integer literals), and string literals with
    the common escapes. *)

exception Error of string * Loc.t
(** Raised on malformed input (unterminated comment or string, bad
    character, an integer literal that is not a valid Int64: [0x] with
    no digits, or a decimal or hex value out of range). *)

val tokenize : string -> (Token.t * Loc.t) list
(** Lex the whole input. The result always ends with an [EOF] token. *)
