(** Source locations.

    Locations identify tokens, statements and expressions; they survive into
    the IR where they support PBO feedback matching (section 3.1 of the
    paper: "this matching is supported by source line information"). *)

type t = { line : int; col : int }

let dummy = { line = 0; col = 0 }

let make ~line ~col = { line; col }

let pp ppf { line; col } = Format.fprintf ppf "%d:%d" line col

let to_string l = Format.asprintf "%a" pp l

let compare (a : t) (b : t) =
  match compare a.line b.line with 0 -> compare a.col b.col | c -> c

let equal a b = compare a b = 0
