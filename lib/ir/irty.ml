(** IR-level types.

    These are Mini-C types with typedefs resolved and the placeholder/auto
    forms gone. Struct types are referenced by name into the program's
    {!Structs.t} table, so the layout transformations can rewrite a struct's
    definition without touching every instruction that mentions it. *)

type t =
  | Void
  | Char
  | Short
  | Int
  | Long
  | Float
  | Double
  | Ptr of t
  | Struct of string
  | Array of t * int
  | Funptr  (** opaque code pointer; used for indirect calls *)

let rec of_ast (t : Slo_minic.Ast.ty) : t =
  match t with
  | Tvoid -> Void
  | Tchar -> Char
  | Tshort -> Short
  | Tint -> Int
  | Tlong -> Long
  | Tfloat -> Float
  | Tdouble -> Double
  | Tstruct s -> Struct s
  | Tptr u -> Ptr (of_ast u)
  | Tarray (u, n) -> Array (of_ast u, n)
  | Tfun _ -> Funptr
  | Tnamed n -> invalid_arg ("Irty.of_ast: unresolved typedef " ^ n)
  | Tauto -> invalid_arg "Irty.of_ast: unchecked expression type"

let is_float_ty = function
  | Float | Double -> true
  | Void | Char | Short | Int | Long | Ptr _ | Struct _ | Array _ | Funptr ->
    false

(* the struct a type points into, seen through pointers and arrays *)
let rec pointee_struct = function
  | Ptr u | Array (u, _) -> pointee_struct u
  | Struct s -> Some s
  | Void | Char | Short | Int | Long | Float | Double | Funptr -> None

let is_integer_ty = function
  | Char | Short | Int | Long -> true
  | Void | Float | Double | Ptr _ | Struct _ | Array _ | Funptr -> false

let rec to_string = function
  | Void -> "void"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"
  | Ptr t -> to_string t ^ "*"
  | Struct s -> "struct " ^ s
  | Array (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Funptr -> "fun*"

let equal (a : t) (b : t) = a = b
