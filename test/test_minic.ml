(* Frontend tests: lexer, parser, type checker, pretty-printer round-trip. *)

module Ast = Slo_minic.Ast
module Lexer = Slo_minic.Lexer
module Parser = Slo_minic.Parser
module Pretty = Slo_minic.Pretty
module Typecheck = Slo_minic.Typecheck
module Token = Slo_minic.Token

let check = Alcotest.check
let string = Alcotest.string
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- lexer ---------------- *)

let tokens src = List.map fst (Lexer.tokenize src)

let lex_kinds () =
  check int "count" 6 (List.length (tokens "int x = 42;"));
  (match tokens "0x1F" with
  | [ INT_LIT n; EOF ] -> check string "hex" "31" (Int64.to_string n)
  | _ -> Alcotest.fail "hex literal");
  (match tokens "3.5e2" with
  | [ FLOAT_LIT f; EOF ] -> check (Alcotest.float 1e-9) "float" 350.0 f
  | _ -> Alcotest.fail "float literal");
  (match tokens "'a'" with
  | [ INT_LIT n; EOF ] -> check string "char" "97" (Int64.to_string n)
  | _ -> Alcotest.fail "char literal");
  match tokens "\"a\\nb\"" with
  | [ STR_LIT s; EOF ] -> check string "escape" "a\nb" s
  | _ -> Alcotest.fail "string literal"

let lex_comments () =
  check int "line comment" 1 (List.length (tokens "// hello\n"));
  check int "block comment" 1 (List.length (tokens "/* a /* b */"));
  check int "hash line" 1 (List.length (tokens "#include <stdio.h>\n"));
  match tokens "a /* x */ b" with
  | [ IDENT "a"; IDENT "b"; EOF ] -> ()
  | _ -> Alcotest.fail "comment between identifiers"

let lex_operators () =
  match tokens "a->b ++ -- <= >= == != && || << >> ..." with
  | [ IDENT "a"; ARROW; IDENT "b"; PLUSPLUS; MINUSMINUS; LE; GE; EQ; NE;
      AMPAMP; BARBAR; SHL; SHR; ELLIPSIS; EOF ] ->
    ()
  | ts ->
    Alcotest.failf "got: %s"
      (String.concat " " (List.map Token.to_string ts))

let lex_positions () =
  let toks = Lexer.tokenize "int\n  x;" in
  match toks with
  | [ (_, l1); (_, l2); (_, _); (_, _) ] ->
    check int "line1" 1 l1.Slo_minic.Loc.line;
    check int "line2" 2 l2.Slo_minic.Loc.line;
    check int "col2" 3 l2.Slo_minic.Loc.col
  | _ -> Alcotest.fail "token count"

let lex_errors () =
  Alcotest.check_raises "unterminated comment"
    (Lexer.Error ("unterminated comment", Slo_minic.Loc.make ~line:1 ~col:1))
    (fun () -> ignore (Lexer.tokenize "/* never closed"));
  match Lexer.tokenize "\"open" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected error on unterminated string"

(* where input ends mid-construct, and other corners of the hand-written
   scanner: the exact message and location of each error, and the tokens
   of each accepted input with their locations *)
let lex_edges () =
  let loc line col = Slo_minic.Loc.make ~line ~col in
  let raises name msg l src =
    Alcotest.check_raises name (Lexer.Error (msg, l)) (fun () ->
        ignore (Lexer.tokenize src))
  in
  let lexes name want src =
    check string name want
      (String.concat " "
         (List.map
            (fun (t, l) -> Token.to_string t ^ "@" ^ Slo_minic.Loc.to_string l)
            (Lexer.tokenize src)))
  in
  raises "NUL byte" "unexpected character '\\000'" (loc 1 2) "a\000b";
  lexes "// at end of input" "x@1:1 <eof>@1:7" "x // c";
  lexes "# at end of input" "x@1:1 <eof>@1:6" "x # c";
  raises "/* ... * at end of input" "unterminated comment" (loc 2 1) "x\n/* abc *";
  (* an exponent with no digits is not part of the number *)
  lexes "1e" "1@1:1 e@1:2 <eof>@1:3" "1e";
  lexes "1e+" "1@1:1 e@1:2 +@1:3 <eof>@1:4" "1e+";
  lexes "1.5e" "1.5@1:1 e@1:4 <eof>@1:5" "1.5e";
  (* integer literals that are not an Int64 are lexical errors *)
  raises "0x" "bad integer literal '0x'" (loc 1 8) "return 0x;";
  raises "decimal past Int64" "bad integer literal '99999999999999999999'"
    (loc 2 3) "x\n  99999999999999999999";
  lexes "Int64 max" "9223372036854775807@1:1 <eof>@1:20" "9223372036854775807";
  raises "char literal at end of input" "unterminated character literal"
    (loc 1 1) "'a";
  raises "quote at end of input" "unterminated character literal" (loc 1 1) "'";
  raises "escape at end of input" "unterminated escape" (loc 1 1) "'\\";
  raises "bad escape" "bad escape '\\q'" (loc 1 1) "'\\q'";
  raises ".." "expected '...'" (loc 1 1) "..";
  raises "1.." "expected '...'" (loc 1 2) "1..";
  lexes "CRLF" "a@1:1 b@2:1 c@3:3 <eof>@3:4" "a\r\nb\r\n  c";
  raises "CRLF location" "expected '...'" (loc 3 3) "a\r\n\r\n  ..b"

(* ---------------- parser ---------------- *)

let parse_ok src = Parser.parse src

let simple_prog = {|
struct point { int x; int y; };
int g;
int add(int a, int b) { return a + b; }
int main() {
  struct point p;
  p.x = 1;
  p.y = 2;
  g = add(p.x, p.y);
  return g;
}
|}

let parse_simple () =
  let p = parse_ok simple_prog in
  check int "decls" 4 (List.length p);
  match p with
  | [ Ast.Dstruct sd; Ast.Dglobal g; Ast.Dfunc f1; Ast.Dfunc f2 ] ->
    check string "struct name" "point" sd.sname;
    check int "fields" 2 (List.length sd.sfields);
    check string "global" "g" g.gname;
    check string "f1" "add" f1.funname;
    check string "f2" "main" f2.funname
  | _ -> Alcotest.fail "unexpected decl shapes"

let parse_typedef () =
  let p =
    parse_ok
      "typedef struct node_s { int v; struct node_s *next; } node_t;\n\
       node_t *head;\n"
  in
  match p with
  | [ Ast.Dstruct sd; Ast.Dtypedef ("node_t", Ast.Tstruct "node_s");
      Ast.Dglobal g ] ->
    check string "tag" "node_s" sd.sname;
    check bool "ptr type" true
      (Ast.ty_equal g.gty (Ast.Tptr (Ast.Tstruct "node_s")))
  | _ -> Alcotest.fail "typedef struct shape"

let parse_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  (match e.edesc with
  | Ast.Ebin (Ast.Add, _, { edesc = Ast.Ebin (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "precedence of * over +");
  let e = Parser.parse_expr_string "a = b = c" in
  (match e.edesc with
  | Ast.Eassign (_, { edesc = Ast.Eassign _; _ }) -> ()
  | _ -> Alcotest.fail "right-assoc =");
  let e = Parser.parse_expr_string "a < b && c < d || e" in
  match e.edesc with
  | Ast.Ebin (Ast.Or, { edesc = Ast.Ebin (Ast.And, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "&& binds tighter than ||"

let parse_postfix_chain () =
  let e = Parser.parse_expr_string "p->next->data[3].f" in
  match e.edesc with
  | Ast.Efield ({ edesc = Ast.Eindex ({ edesc = Ast.Earrow _; _ }, _); _ }, "f")
    ->
    ()
  | _ -> Alcotest.fail "postfix chain shape"

let parse_cast_vs_paren () =
  (* without typedef knowledge, (x) is a parenthesised expression *)
  let e = Parser.parse_expr_string "(x) + 1" in
  (match e.edesc with
  | Ast.Ebin (Ast.Add, { edesc = Ast.Evar "x"; _ }, _) -> ()
  | _ -> Alcotest.fail "paren expr");
  let p = parse_ok "int main() { double d; d = (double)1; return 0; }" in
  match p with
  | [ Ast.Dfunc f ] -> (
    match List.nth f.funbody 1 with
    | { sdesc = Ast.Sexpr { edesc = Ast.Eassign (_, { edesc = Ast.Ecast (Ast.Tdouble, _); _ }); _ }; _ } ->
      ()
    | _ -> Alcotest.fail "cast shape")
  | _ -> Alcotest.fail "prog shape"

let parse_for_desugar () =
  let p =
    parse_ok "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }"
  in
  match p with
  | [ Ast.Dfunc f ] -> (
    match f.funbody with
    | [ _; { sdesc = Ast.Sfor (Some _, Some _, Some _, [ _ ]); _ }; _ ] -> ()
    | _ -> Alcotest.fail "for shape")
  | _ -> Alcotest.fail "prog shape"

let parse_bitfields () =
  let p = parse_ok "struct flags { int a : 3; int b : 5; long c; };" in
  match p with
  | [ Ast.Dstruct sd ] -> (
    match sd.sfields with
    | [ { fbits = Some 3; _ }; { fbits = Some 5; _ }; { fbits = None; _ } ] ->
      ()
    | _ -> Alcotest.fail "bitfield widths")
  | _ -> Alcotest.fail "prog shape"

let parse_extern_variadic () =
  let p = parse_ok "extern int fprintf(int, char*, ...);" in
  match p with
  | [ Ast.Dextern e ] ->
    check bool "variadic" true e.exvariadic;
    check int "params" 2 (List.length e.exparams)
  | _ -> Alcotest.fail "extern shape"

let parse_multi_declarator () =
  let p = parse_ok "int main() { int a, b = 2, c[4]; a = b; return c[0]; }" in
  match p with
  | [ Ast.Dfunc f ] ->
    (* int a, b, c[4] packs into a block of three decls *)
    (match List.hd f.funbody with
    | { sdesc = Ast.Sblock decls; _ } -> check int "decls" 3 (List.length decls)
    | _ -> Alcotest.fail "multi declarator shape")
  | _ -> Alcotest.fail "prog shape"

let parse_errors () =
  let bad srcs =
    List.iter
      (fun src ->
        match Parser.parse src with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.failf "expected syntax error on %S" src)
      srcs
  in
  bad
    [ "int main( { return 0; }"; "struct S { int x };"; "int f() { return 1 }";
      "int f() { if x { } }" ]

(* ---------------- typecheck ---------------- *)

let typed src =
  let p = Parser.parse src in
  (p, Typecheck.check p)

let tc_simple () =
  let _, env = typed simple_prog in
  check int "field_index y" 1 (Typecheck.field_index env "point" "y");
  check bool "struct known" true (Hashtbl.mem env.structs "point")

let tc_annotates () =
  let p, _ = typed "double half(int x) { return x / 2.0; }" in
  match p with
  | [ Ast.Dfunc f ] -> (
    match f.funbody with
    | [ { sdesc = Ast.Sreturn (Some e); _ } ] ->
      check bool "div is double" true (Ast.ty_equal e.ety Ast.Tdouble)
    | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "prog shape"

let tc_pointer_arith () =
  let p, _ =
    typed
      "struct s { int v; };\n\
       int main() { struct s *p; p = (struct s*)malloc(4 * sizeof(struct s));\n\
       return (p + 1)->v; }"
  in
  match p with
  | [ _; Ast.Dfunc f ] -> (
    match List.rev f.funbody with
    | { sdesc = Ast.Sreturn (Some e); _ } :: _ ->
      check bool "arrow yields int" true (Ast.ty_equal e.ety Ast.Tint)
    | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "prog shape"

let tc_errors () =
  let bad srcs =
    List.iter
      (fun src ->
        match typed src with
        | exception Typecheck.Error _ -> ()
        | _ -> Alcotest.failf "expected type error on %S" src)
      srcs
  in
  bad
    [
      "int main() { return undefined_var; }";
      "int main() { struct nope *p; return 0; }";
      "struct s { int v; }; int main() { struct s x; return x.w; }";
      "int main() { int x; return x.f; }";
      "int main() { int x; return *x; }";
      "int main() { 1 = 2; return 0; }";
      "int g; int main() { return g(); }";
    ]

(* ---------------- pretty round-trip ---------------- *)

let strip_locs_prog p = Pretty.string_of_program p

let roundtrip src =
  let p1 = Parser.parse src in
  let s1 = strip_locs_prog p1 in
  let p2 = Parser.parse s1 in
  let s2 = strip_locs_prog p2 in
  check string "roundtrip fixpoint" s1 s2

let pretty_roundtrip () =
  roundtrip simple_prog;
  roundtrip
    "struct n { int v; struct n *next; };\n\
     struct n *mk(int k) {\n\
     struct n *h; int i;\n\
     h = (struct n*)0;\n\
     for (i = 0; i < k; i++) {\n\
     struct n *c; c = (struct n*)malloc(sizeof(struct n));\n\
     c->v = i; c->next = h; h = c;\n\
     }\n\
     return h; }\n";
  roundtrip "int main() { int x; x = 1 ? 2 : 3; return x << 2 | 1; }"

(* ---------------- qcheck: expression printer/parser round trip ------- *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let loc = Slo_minic.Loc.dummy in
  let leaf =
    oneof
      [
        map (fun n -> Ast.mk loc (Ast.Eint (Int64.of_int (abs n)))) small_int;
        map (fun v -> Ast.mk loc (Ast.Evar ("v" ^ string_of_int (abs v mod 5)))) small_int;
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Ast.mk loc (Ast.Ebin (op, a, b)))
              (oneofl
                 [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Lt; Ast.Eq;
                   Ast.And; Ast.Or; Ast.Shl; Ast.Band ])
              (go (depth - 1)) (go (depth - 1)) );
          (1, map (fun a -> Ast.mk loc (Ast.Eun (Ast.Neg, a))) (go (depth - 1)));
          ( 1,
            map2
              (fun a b -> Ast.mk loc (Ast.Eindex (a, b)))
              (map (fun v -> Ast.mk loc (Ast.Evar ("a" ^ string_of_int (abs v mod 3)))) small_int)
              (go (depth - 1)) );
        ]
  in
  go 4

let rec expr_equal (a : Ast.expr) (b : Ast.expr) =
  match (a.edesc, b.edesc) with
  | Ast.Eint x, Ast.Eint y -> Int64.equal x y
  | Ast.Evar x, Ast.Evar y -> String.equal x y
  | Ast.Ebin (o1, a1, b1), Ast.Ebin (o2, a2, b2) ->
    o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Ast.Eun (o1, a1), Ast.Eun (o2, a2) -> o1 = o2 && expr_equal a1 a2
  | Ast.Eindex (a1, b1), Ast.Eindex (a2, b2) ->
    expr_equal a1 a2 && expr_equal b1 b2
  | _ -> false

let prop_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse(print(e)) = e"
    (QCheck.make gen_expr ~print:Pretty.string_of_expr)
    (fun e ->
      let s = Pretty.string_of_expr e in
      expr_equal e (Parser.parse_expr_string s))

(* the lexer is total up to its own error: any byte string tokenizes or
   raises [Lexer.Error]. Digit-heavy strings reach the literal paths
   (long decimals, [0x] with no digits, exponents) that random bytes
   rarely hit. *)
let prop_lexer_total =
  let gen =
    let open QCheck.Gen in
    let digitish =
      frequency
        [ (3, numeral); (1, oneofl [ 'x'; 'X'; 'e'; 'E'; '.'; '+'; '-'; ' '; 'f' ]) ]
    in
    oneof
      [
        string_size ~gen:char (int_bound 40);
        string_size ~gen:numeral (int_range 1 30);
        string_size ~gen:digitish (int_bound 40);
      ]
  in
  QCheck.Test.make ~count:(Qcheck_long.iters 1000)
    ~name:"tokenize raises only Lexer.Error"
    (QCheck.make gen ~print:(Printf.sprintf "%S"))
    (fun src ->
      match Lexer.tokenize src with
      | _ -> true
      | exception Lexer.Error _ -> true)

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "kinds" `Quick lex_kinds;
          Alcotest.test_case "comments" `Quick lex_comments;
          Alcotest.test_case "operators" `Quick lex_operators;
          Alcotest.test_case "positions" `Quick lex_positions;
          Alcotest.test_case "errors" `Quick lex_errors;
          Alcotest.test_case "edge cases" `Quick lex_edges;
          QCheck_alcotest.to_alcotest prop_lexer_total;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick parse_simple;
          Alcotest.test_case "typedef struct" `Quick parse_typedef;
          Alcotest.test_case "precedence" `Quick parse_precedence;
          Alcotest.test_case "postfix chain" `Quick parse_postfix_chain;
          Alcotest.test_case "cast vs paren" `Quick parse_cast_vs_paren;
          Alcotest.test_case "for" `Quick parse_for_desugar;
          Alcotest.test_case "bitfields" `Quick parse_bitfields;
          Alcotest.test_case "extern variadic" `Quick parse_extern_variadic;
          Alcotest.test_case "multi declarator" `Quick parse_multi_declarator;
          Alcotest.test_case "errors" `Quick parse_errors;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "simple" `Quick tc_simple;
          Alcotest.test_case "annotates" `Quick tc_annotates;
          Alcotest.test_case "pointer arith" `Quick tc_pointer_arith;
          Alcotest.test_case "errors" `Quick tc_errors;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip" `Quick pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        ] );
    ]
