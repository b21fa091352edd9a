exception Error of string * Loc.t

type state = {
  toks : (Token.t * Loc.t) array;
  mutable pos : int;
  typedefs : (string, Ast.ty) Hashtbl.t;
}

let cur st = fst st.toks.(st.pos)
let cur_loc st = snd st.toks.(st.pos)

let peek_n st n =
  let i = st.pos + n in
  if i < Array.length st.toks then fst st.toks.(i) else Token.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let error st msg = raise (Error (msg, cur_loc st))

(* [expect], [accept] and the [==] tests below take constant tokens
   only, which physical equality decides *)
let expect st (t : Token.t) =
  if cur st == t then advance st
  else
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string t)
         (Token.to_string (cur st)))

let accept st (t : Token.t) =
  if cur st == t then (
    advance st;
    true)
  else false

let rec skip_consts st =
  match cur st with
  | IDENT "const" ->
    advance st;
    skip_consts st
  | _ -> ()

let expect_ident st =
  match cur st with
  | IDENT s ->
    advance st;
    s
  | t -> error st (Printf.sprintf "expected identifier, found '%s'" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let is_type_start st =
  match cur st with
  | KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE
  | KW_STRUCT ->
    true
  | IDENT "const" -> true
  | IDENT s -> Hashtbl.mem st.typedefs s
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _
  | KW_TYPEDEF | KW_EXTERN | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR
  | KW_RETURN | KW_BREAK | KW_CONTINUE | KW_SIZEOF
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET | SEMI | COMMA
  | DOT | ARROW | COLON | QUESTION | ELLIPSIS | PLUS | MINUS | STAR | SLASH
  | PERCENT | PLUSPLUS | MINUSMINUS | ASSIGN | PLUSEQ | MINUSEQ | STAREQ
  | SLASHEQ | EQ | NE | LT | LE | GT | GE | AMPAMP | BARBAR | BANG | AMP
  | BAR | CARET | TILDE | SHL | SHR | EOF ->
    false

(* base type: scalar keyword, [struct tag], or typedef name *)
let parse_base_type st : Ast.ty =
  skip_consts st;
  match cur st with
  | KW_VOID -> advance st; Ast.Tvoid
  | KW_CHAR -> advance st; Ast.Tchar
  | KW_SHORT -> advance st; Ast.Tshort
  | KW_INT -> advance st; Ast.Tint
  | KW_LONG ->
    advance st;
    (* accept [long long] and [long int] *)
    ignore (accept st KW_LONG);
    ignore (accept st KW_INT);
    Ast.Tlong
  | KW_FLOAT -> advance st; Ast.Tfloat
  | KW_DOUBLE -> advance st; Ast.Tdouble
  | KW_STRUCT ->
    advance st;
    let tag = expect_ident st in
    Ast.Tstruct tag
  | IDENT s when Hashtbl.mem st.typedefs s ->
    advance st;
    Hashtbl.find st.typedefs s
  | t -> error st (Printf.sprintf "expected type, found '%s'" (Token.to_string t))

(* a base type followed by any number of [*] *)
let rec parse_type st : Ast.ty = parse_pointers st (parse_base_type st)

and parse_pointers st base =
  if accept st STAR then parse_pointers st (Ast.Tptr base) else base

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [ (type) ] is a cast iff the token after '(' starts a type *)
let starts_cast st =
  cur st == Token.LPAREN
  &&
  match peek_n st 1 with
  | KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE
  | KW_STRUCT ->
    true
  | IDENT s -> Hashtbl.mem st.typedefs s
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | KW_TYPEDEF | KW_EXTERN | KW_IF
  | KW_ELSE | KW_WHILE | KW_DO | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | KW_SIZEOF | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | DOT | ARROW | COLON | QUESTION | ELLIPSIS | PLUS | MINUS
  | STAR | SLASH | PERCENT | PLUSPLUS | MINUSMINUS | ASSIGN | PLUSEQ
  | MINUSEQ | STAREQ | SLASHEQ | EQ | NE | LT | LE | GT | GE | AMPAMP
  | BARBAR | BANG | AMP | BAR | CARET | TILDE | SHL | SHR | EOF ->
    false

let rec parse_expr st : Ast.expr = parse_assign st

and parse_assign st =
  let lhs = parse_cond st in
  let l = cur_loc st in
  let mk_compound op =
    advance st;
    let rhs = parse_assign st in
    Ast.mk l (Ast.Eassign (lhs, Ast.mk l (Ast.Ebin (op, lhs, rhs))))
  in
  match cur st with
  | ASSIGN ->
    advance st;
    let rhs = parse_assign st in
    Ast.mk l (Ast.Eassign (lhs, rhs))
  | PLUSEQ -> mk_compound Ast.Add
  | MINUSEQ -> mk_compound Ast.Sub
  | STAREQ -> mk_compound Ast.Mul
  | SLASHEQ -> mk_compound Ast.Div
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | IDENT _ | KW_VOID | KW_CHAR
  | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE | KW_STRUCT
  | KW_TYPEDEF | KW_EXTERN | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR
  | KW_RETURN | KW_BREAK | KW_CONTINUE | KW_SIZEOF | LPAREN | RPAREN
  | LBRACE | RBRACE | LBRACKET | RBRACKET | SEMI | COMMA | DOT | ARROW
  | COLON | QUESTION | ELLIPSIS | PLUS | MINUS | STAR | SLASH | PERCENT
  | PLUSPLUS | MINUSMINUS | EQ | NE | LT | LE | GT | GE | AMPAMP | BARBAR
  | BANG | AMP | BAR | CARET | TILDE | SHL | SHR | EOF ->
    lhs

and parse_cond st =
  let c = parse_binary 0 st in
  if accept st QUESTION then begin
    let l = cur_loc st in
    let a = parse_assign st in
    expect st COLON;
    let b = parse_cond st in
    Ast.mk l (Ast.Econd (c, a, b))
  end
  else c

(* binary operators by precedence level, loosest first: the operator
   token [t] stands for at level [lvl], if any *)
and binop_at lvl (t : Token.t) : Ast.binop option =
  match (lvl, t) with
  | 0, BARBAR -> Some Or
  | 1, AMPAMP -> Some And
  | 2, BAR -> Some Bor
  | 3, CARET -> Some Bxor
  | 4, AMP -> Some Band
  | 5, EQ -> Some Eq
  | 5, NE -> Some Ne
  | 6, LT -> Some Lt
  | 6, LE -> Some Le
  | 6, GT -> Some Gt
  | 6, GE -> Some Ge
  | 7, SHL -> Some Shl
  | 7, SHR -> Some Shr
  | 8, PLUS -> Some Add
  | 8, MINUS -> Some Sub
  | 9, STAR -> Some Mul
  | 9, SLASH -> Some Div
  | 9, PERCENT -> Some Mod
  | _ -> None

(* a left-associative chain of level [lvl] operators; past the last
   level, a unary expression *)
and parse_binary lvl st =
  if lvl > 9 then parse_unary st else parse_binary_rest lvl st (parse_binary (lvl + 1) st)

(* [lhs] followed by any level [lvl] operators and their operands *)
and parse_binary_rest lvl st lhs =
  match binop_at lvl (cur st) with
  | Some op ->
    let l = cur_loc st in
    advance st;
    let rhs = parse_binary (lvl + 1) st in
    parse_binary_rest lvl st (Ast.mk l (Ast.Ebin (op, lhs, rhs)))
  | None -> lhs

and parse_unary st =
  let l = cur_loc st in
  match cur st with
  | MINUS ->
    advance st;
    Ast.mk l (Ast.Eun (Ast.Neg, parse_unary st))
  | BANG ->
    advance st;
    Ast.mk l (Ast.Eun (Ast.Lnot, parse_unary st))
  | TILDE ->
    advance st;
    Ast.mk l (Ast.Eun (Ast.Bnot, parse_unary st))
  | STAR ->
    advance st;
    Ast.mk l (Ast.Ederef (parse_unary st))
  | AMP ->
    advance st;
    Ast.mk l (Ast.Eaddr (parse_unary st))
  | PLUSPLUS ->
    advance st;
    Ast.mk l (Ast.Eincr (Ast.Preinc, parse_unary st))
  | MINUSMINUS ->
    advance st;
    Ast.mk l (Ast.Eincr (Ast.Predec, parse_unary st))
  | KW_SIZEOF ->
    advance st;
    expect st LPAREN;
    let t = parse_type_with_arrays st in
    expect st RPAREN;
    Ast.mk l (Ast.Esizeof t)
  | LPAREN when starts_cast st ->
    advance st;
    let t = parse_type st in
    expect st RPAREN;
    Ast.mk l (Ast.Ecast (t, parse_unary st))
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | IDENT _ | KW_VOID | KW_CHAR
  | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE | KW_STRUCT
  | KW_TYPEDEF | KW_EXTERN | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR
  | KW_RETURN | KW_BREAK | KW_CONTINUE | LPAREN | RPAREN | LBRACE | RBRACE
  | LBRACKET | RBRACKET | SEMI | COMMA | DOT | ARROW | COLON | QUESTION
  | ELLIPSIS | PLUS | SLASH | PERCENT | ASSIGN | PLUSEQ | MINUSEQ | STAREQ
  | SLASHEQ | EQ | NE | LT | LE | GT | GE | AMPAMP | BARBAR | BAR | CARET
  | SHL | SHR | EOF ->
    parse_postfix st

and parse_type_with_arrays st =
  let t = parse_type st in
  let rec arrays t =
    if accept st LBRACKET then begin
      match cur st with
      | INT_LIT n ->
        advance st;
        expect st RBRACKET;
        (* in C, [T a[2][3]] is an array of arrays; innermost first *)
        Ast.Tarray (arrays t, Int64.to_int n)
      | _ -> error st "expected integer array bound"
    end
    else t
  in
  arrays t

and parse_postfix st = parse_postfix_rest st (parse_primary st)

(* [e] followed by any calls, subscripts, member accesses and postfix
   increments *)
and parse_postfix_rest st e =
  let l = cur_loc st in
  match cur st with
  | LPAREN ->
    advance st;
    let args = parse_args st in
    expect st RPAREN;
    parse_postfix_rest st (Ast.mk l (Ast.Ecall (e, args)))
  | LBRACKET ->
    advance st;
    let i = parse_expr st in
    expect st RBRACKET;
    parse_postfix_rest st (Ast.mk l (Ast.Eindex (e, i)))
  | DOT ->
    advance st;
    let f = expect_ident st in
    parse_postfix_rest st (Ast.mk l (Ast.Efield (e, f)))
  | ARROW ->
    advance st;
    let f = expect_ident st in
    parse_postfix_rest st (Ast.mk l (Ast.Earrow (e, f)))
  | PLUSPLUS ->
    advance st;
    parse_postfix_rest st (Ast.mk l (Ast.Eincr (Ast.Postinc, e)))
  | MINUSMINUS ->
    advance st;
    parse_postfix_rest st (Ast.mk l (Ast.Eincr (Ast.Postdec, e)))
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | IDENT _ | KW_VOID | KW_CHAR
  | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE | KW_STRUCT
  | KW_TYPEDEF | KW_EXTERN | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR
  | KW_RETURN | KW_BREAK | KW_CONTINUE | KW_SIZEOF | RPAREN | LBRACE
  | RBRACE | RBRACKET | SEMI | COMMA | COLON | QUESTION | ELLIPSIS | PLUS
  | MINUS | STAR | SLASH | PERCENT | ASSIGN | PLUSEQ | MINUSEQ | STAREQ
  | SLASHEQ | EQ | NE | LT | LE | GT | GE | AMPAMP | BARBAR | BANG | AMP
  | BAR | CARET | TILDE | SHL | SHR | EOF ->
    e

and parse_args st =
  if cur st == Token.RPAREN then []
  else begin
    let rec go acc =
      let a = parse_assign st in
      if accept st COMMA then go (a :: acc) else List.rev (a :: acc)
    in
    go []
  end

and parse_primary st =
  let l = cur_loc st in
  match cur st with
  | INT_LIT n ->
    advance st;
    Ast.mk l (Ast.Eint n)
  | FLOAT_LIT f ->
    advance st;
    Ast.mk l (Ast.Efloat f)
  | STR_LIT s ->
    advance st;
    Ast.mk l (Ast.Estr s)
  | IDENT s ->
    advance st;
    Ast.mk l (Ast.Evar s)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | t ->
    error st (Printf.sprintf "expected expression, found '%s'" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* declarator after a base type: [*]* name ([n])* — returns (type, name) *)
let parse_declarator st base =
  let t = parse_pointers st base in
  let name = expect_ident st in
  let rec arrays t =
    if accept st LBRACKET then begin
      match cur st with
      | INT_LIT n ->
        advance st;
        expect st RBRACKET;
        Ast.Tarray (arrays t, Int64.to_int n)
      | _ -> error st "expected integer array bound"
    end
    else t
  in
  (arrays t, name)

let rec parse_stmt st : Ast.stmt list =
  let l = cur_loc st in
  match cur st with
  | SEMI ->
    advance st;
    []
  | LBRACE ->
    advance st;
    let body = parse_block st in
    [ Ast.mk_stmt l (Ast.Sblock body) ]
  | KW_IF ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let then_ = parse_stmt st in
    let else_ = if accept st KW_ELSE then parse_stmt st else [] in
    [ Ast.mk_stmt l (Ast.Sif (c, then_, else_)) ]
  | KW_WHILE ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let body = parse_stmt st in
    [ Ast.mk_stmt l (Ast.Swhile (c, body)) ]
  | KW_DO ->
    advance st;
    let body = parse_stmt st in
    expect st KW_WHILE;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    expect st SEMI;
    [ Ast.mk_stmt l (Ast.Sdo (body, c)) ]
  | KW_FOR ->
    advance st;
    expect st LPAREN;
    let init =
      if cur st == Token.SEMI then None
      else if is_type_start st then Some (parse_local_decl st)
      else begin
        let e = parse_expr st in
        Some (Ast.mk_stmt l (Ast.Sexpr e))
      end
    in
    (match init with
    | Some { Ast.sdesc = Ast.Sdecl _; _ } -> () (* decl consumed its ';' *)
    | Some _ | None -> expect st SEMI);
    let cond = if cur st == Token.SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    let step = if cur st == Token.RPAREN then None else Some (parse_expr st) in
    expect st RPAREN;
    let body = parse_stmt st in
    [ Ast.mk_stmt l (Ast.Sfor (init, cond, step, body)) ]
  | KW_RETURN ->
    advance st;
    let e = if cur st == Token.SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    [ Ast.mk_stmt l (Ast.Sreturn e) ]
  | KW_BREAK ->
    advance st;
    expect st SEMI;
    [ Ast.mk_stmt l Ast.Sbreak ]
  | KW_CONTINUE ->
    advance st;
    expect st SEMI;
    [ Ast.mk_stmt l Ast.Scontinue ]
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | IDENT _ | KW_VOID | KW_CHAR
  | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE | KW_STRUCT
  | KW_TYPEDEF | KW_EXTERN | KW_ELSE | KW_SIZEOF | LPAREN | RPAREN | RBRACE
  | LBRACKET | RBRACKET | COMMA | DOT | ARROW | COLON | QUESTION | ELLIPSIS
  | PLUS | MINUS | STAR | SLASH | PERCENT | PLUSPLUS | MINUSMINUS | ASSIGN
  | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | EQ | NE | LT | LE | GT | GE
  | AMPAMP | BARBAR | BANG | AMP | BAR | CARET | TILDE | SHL | SHR | EOF ->
    if is_type_start st then [ parse_local_decl st ]
    else begin
      let e = parse_expr st in
      expect st SEMI;
      [ Ast.mk_stmt l (Ast.Sexpr e) ]
    end

(* one or more local declarations sharing a base type: [int a, *b, c[4];].
   Multiple declarators are packed into an [Sblock]. *)
and parse_local_decl st : Ast.stmt =
  let l = cur_loc st in
  let base = parse_base_type st in
  let rec declarators acc =
    let t, name = parse_declarator st base in
    let init = if accept st ASSIGN then Some (parse_assign st) else None in
    let d = Ast.mk_stmt l (Ast.Sdecl (t, name, init)) in
    if accept st COMMA then declarators (d :: acc)
    else begin
      expect st SEMI;
      List.rev (d :: acc)
    end
  in
  match declarators [] with
  | [ d ] -> d
  | ds -> Ast.mk_stmt l (Ast.Sblock ds)

and parse_block st : Ast.stmt list =
  let rec go acc =
    if accept st RBRACE then List.concat (List.rev acc)
    else go (parse_stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_struct_body st tag =
  let l = cur_loc st in
  expect st LBRACE;
  let fields = ref [] in
  while not (accept st RBRACE) do
    let floc = cur_loc st in
    let base = parse_type st in
    let rec declarators base =
      let t, name = parse_declarator st base in
      let bits =
        if accept st COLON then begin
          match cur st with
          | INT_LIT n ->
            advance st;
            Some (Int64.to_int n)
          | _ -> error st "expected bit-field width"
        end
        else None
      in
      fields := { Ast.fname = name; fty = t; fbits = bits; floc } :: !fields;
      if accept st COMMA then
        (* further declarators share only the base type, not the pointers *)
        declarators
          (match t with Ast.Tptr _ -> strip_ptr t | _ -> t)
      else expect st SEMI
    and strip_ptr = function Ast.Tptr t -> strip_ptr t | t -> t in
    declarators base
  done;
  { Ast.sname = tag; sfields = List.rev !fields; stloc = l }

let parse_params st =
  expect st LPAREN;
  if accept st RPAREN then ([], false)
  else if cur st == Token.KW_VOID && peek_n st 1 == Token.RPAREN then begin
    advance st;
    advance st;
    ([], false)
  end
  else begin
    let variadic = ref false in
    let rec go acc =
      if accept st ELLIPSIS then begin
        variadic := true;
        expect st RPAREN;
        List.rev acc
      end
      else begin
        let base = parse_type st in
        let t, name =
          match cur st with
          | IDENT _ -> parse_declarator st base
          | _ -> (base, "")
          (* unnamed parameter in a prototype *)
        in
        if accept st COMMA then go ((t, name) :: acc)
        else begin
          expect st RPAREN;
          List.rev ((t, name) :: acc)
        end
      end
    in
    let ps = go [] in
    (ps, !variadic)
  end

let parse_toplevel st : Ast.decl list =
  let l = cur_loc st in
  match cur st with
  | KW_TYPEDEF ->
    advance st;
    if cur st == Token.KW_STRUCT then begin
      advance st;
      (* [typedef struct Tag { ... } name;] or [typedef struct Tag name;] *)
      let tag =
        match cur st with
        | IDENT s ->
          advance st;
          Some s
        | LBRACE -> None
        | _ -> error st "expected struct tag or '{'"
      in
      if cur st == Token.LBRACE then begin
        let tag_name =
          match tag with Some s -> s | None -> "__anon" ^ string_of_int st.pos
        in
        let sd = parse_struct_body st tag_name in
        let name = expect_ident st in
        expect st SEMI;
        Hashtbl.replace st.typedefs name (Ast.Tstruct tag_name);
        [ Ast.Dstruct sd; Ast.Dtypedef (name, Ast.Tstruct tag_name) ]
      end
      else begin
        let tag_name = match tag with Some s -> s | None -> assert false in
        let base = parse_pointers st (Ast.Tstruct tag_name) in
        let name = expect_ident st in
        expect st SEMI;
        Hashtbl.replace st.typedefs name base;
        [ Ast.Dtypedef (name, base) ]
      end
    end
    else begin
      let base = parse_type st in
      (* function-pointer typedef: [typedef ret ( * name)(params);] *)
      if cur st == Token.LPAREN then begin
        advance st;
        expect st STAR;
        let name = expect_ident st in
        expect st RPAREN;
        let params, _ = parse_params st in
        expect st SEMI;
        let t = Ast.Tptr (Ast.Tfun (base, List.map fst params)) in
        Hashtbl.replace st.typedefs name t;
        [ Ast.Dtypedef (name, t) ]
      end
      else begin
        let name = expect_ident st in
        expect st SEMI;
        Hashtbl.replace st.typedefs name base;
        [ Ast.Dtypedef (name, base) ]
      end
    end
  | KW_STRUCT when peek_n st 2 == Token.LBRACE ->
    advance st;
    let tag = expect_ident st in
    let sd = parse_struct_body st tag in
    expect st SEMI;
    [ Ast.Dstruct sd ]
  | KW_STRUCT when peek_n st 2 == Token.SEMI ->
    (* forward declaration [struct S;] — no-op *)
    advance st;
    ignore (expect_ident st);
    expect st SEMI;
    []
  | KW_EXTERN ->
    advance st;
    let ret = parse_type st in
    let name = expect_ident st in
    let params, variadic = parse_params st in
    expect st SEMI;
    [ Ast.Dextern
        { exname = name; exret = ret; exparams = List.map fst params;
          exvariadic = variadic } ]
  | INT_LIT _ | FLOAT_LIT _ | STR_LIT _ | IDENT _ | KW_VOID | KW_CHAR
  | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT | KW_DOUBLE | KW_IF | KW_ELSE
  | KW_WHILE | KW_DO | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | KW_SIZEOF | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | DOT | ARROW | COLON | QUESTION | ELLIPSIS | PLUS | MINUS
  | STAR | SLASH | PERCENT | PLUSPLUS | MINUSMINUS | ASSIGN | PLUSEQ
  | MINUSEQ | STAREQ | SLASHEQ | EQ | NE | LT | LE | GT | GE | AMPAMP
  | BARBAR | BANG | AMP | BAR | CARET | TILDE | SHL | SHR | EOF | KW_STRUCT
    ->
    (* global variable or function definition *)
    let base = parse_type st in
    let t, name = parse_declarator st base in
    if cur st == Token.LPAREN then begin
      let params, _variadic = parse_params st in
      if accept st SEMI then
        (* prototype of a function defined later (or never): treat a
           prototype-without-body as extern when no definition follows;
           the checker resolves this. *)
        [ Ast.Dextern
            { exname = name; exret = t; exparams = List.map fst params;
              exvariadic = false } ]
      else begin
        expect st LBRACE;
        let body = parse_block st in
        [ Ast.Dfunc
            { funname = name; funret = t; funparams = params; funbody = body;
              funloc = l } ]
      end
    end
    else begin
      let init = if accept st ASSIGN then Some (parse_assign st) else None in
      let rec more acc =
        if accept st COMMA then begin
          let t2, name2 = parse_declarator st base in
          let init2 = if accept st ASSIGN then Some (parse_assign st) else None in
          more
            (Ast.Dglobal { gname = name2; gty = t2; ginit = init2; gloc = l }
             :: acc)
        end
        else begin
          expect st SEMI;
          List.rev acc
        end
      in
      more [ Ast.Dglobal { gname = name; gty = t; ginit = init; gloc = l } ]
    end

let parse src : Ast.program =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; typedefs = Hashtbl.create 16 } in
  let rec go acc =
    if cur st == Token.EOF then List.concat (List.rev acc)
    else go (parse_toplevel st :: acc)
  in
  go []

let parse_expr_string src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; typedefs = Hashtbl.create 16 } in
  let e = parse_expr st in
  if cur st != Token.EOF then error st "trailing tokens after expression";
  e
