exception Error of string * Loc.t

(* The scanner reads [src] by index: every read is guarded by an
   explicit [pos < len] test, so no character is ever boxed. *)
type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st = Loc.make ~line:st.line ~col:(st.pos - st.bol + 1)

(* the character [k] places ahead is [c] (false past the end) *)
let is_at st k c = st.pos + k < st.len && st.src.[st.pos + k] = c

(* step over one character that may be a newline; [skip] steps over one
   known not to be *)
let advance st =
  if st.pos < st.len && st.src.[st.pos] = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let skip st = st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* step over characters while [p] holds of the current one *)
let skip_while st p =
  while st.pos < st.len && p st.src.[st.pos] do
    skip st
  done

let keywords : (string, Token.t) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (s, kw) -> Hashtbl.replace t s kw)
    [
      ("void", Token.KW_VOID); ("char", KW_CHAR); ("short", KW_SHORT);
      ("int", KW_INT); ("long", KW_LONG); ("float", KW_FLOAT);
      ("double", KW_DOUBLE); ("struct", KW_STRUCT); ("typedef", KW_TYPEDEF);
      ("extern", KW_EXTERN); ("if", KW_IF); ("else", KW_ELSE);
      ("while", KW_WHILE); ("do", KW_DO); ("for", KW_FOR);
      ("return", KW_RETURN); ("break", KW_BREAK); ("continue", KW_CONTINUE);
      ("sizeof", KW_SIZEOF);
      (* accepted and ignored qualifiers are handled in the parser; [const],
         [unsigned], [static] and [register] are lexed as plain identifiers *)
    ];
  t

let rec skip_ws_and_comments st =
  if st.pos < st.len then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws_and_comments st
    | '/' when is_at st 1 '/' ->
      skip_while st (fun c -> c <> '\n');
      skip_ws_and_comments st
    | '/' when is_at st 1 '*' ->
      let start = loc st in
      st.pos <- st.pos + 2;
      while not (is_at st 0 '*' && is_at st 1 '/') do
        if st.pos >= st.len then raise (Error ("unterminated comment", start));
        advance st
      done;
      st.pos <- st.pos + 2;
      skip_ws_and_comments st
    | '#' ->
      (* preprocessor-style lines (e.g. #include) are skipped verbatim so
         that benchmark sources can keep familiar headers *)
      skip_while st (fun c -> c <> '\n');
      skip_ws_and_comments st
    | _ -> ()

(* [0x] without digits and decimals past the Int64 range are errors *)
let int_lit s l =
  match Int64.of_string_opt s with
  | Some n -> (Token.INT_LIT n, l)
  | None -> raise (Error (Printf.sprintf "bad integer literal '%s'" s, l))

let lex_number st =
  let start = st.pos in
  let l = loc st in
  if is_at st 0 '0' && (is_at st 1 'x' || is_at st 1 'X') then begin
    st.pos <- st.pos + 2;
    skip_while st is_hex;
    int_lit (String.sub st.src start (st.pos - start)) l
  end
  else begin
    skip_while st is_digit;
    let is_float = ref false in
    if is_at st 0 '.' && st.pos + 1 < st.len && is_digit st.src.[st.pos + 1]
    then begin
      is_float := true;
      skip st;
      skip_while st is_digit
    end;
    (* an exponent without digits is not part of the number *)
    if is_at st 0 'e' || is_at st 0 'E' then begin
      let save = st.pos in
      skip st;
      if is_at st 0 '+' || is_at st 0 '-' then skip st;
      if st.pos < st.len && is_digit st.src.[st.pos] then begin
        is_float := true;
        skip_while st is_digit
      end
      else st.pos <- save
    end;
    let s = String.sub st.src start (st.pos - start) in
    if !is_float then (Token.FLOAT_LIT (float_of_string s), l) else int_lit s l
  end

let lex_escape st l =
  if st.pos >= st.len then raise (Error ("unterminated escape", l));
  let c =
    match st.src.[st.pos] with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | ('\\' | '\'' | '"') as c -> c
    | c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, l))
  in
  skip st;
  c

let lex_string st =
  let l = loc st in
  skip st;
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then raise (Error ("unterminated string literal", l));
    match st.src.[st.pos] with
    | '"' -> skip st
    | '\\' ->
      skip st;
      Buffer.add_char buf (lex_escape st l);
      go ()
    | c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  (Token.STR_LIT (Buffer.contents buf), l)

let lex_char st =
  let l = loc st in
  skip st;
  if st.pos >= st.len then raise (Error ("unterminated character literal", l));
  let c =
    match st.src.[st.pos] with
    | '\\' ->
      skip st;
      lex_escape st l
    | c ->
      advance st;
      c
  in
  if is_at st 0 '\'' then skip st
  else raise (Error ("unterminated character literal", l));
  (Token.INT_LIT (Int64.of_int (Char.code c)), l)

let lex_ident st =
  let start = st.pos in
  let l = loc st in
  skip_while st is_ident;
  let s = String.sub st.src start (st.pos - start) in
  match Hashtbl.find keywords s with
  | kw -> (kw, l)
  | exception Not_found -> (Token.IDENT s, l)

let lex_op st : Token.t * Loc.t =
  let l = loc st in
  let c = st.src.[st.pos] in
  (* no two-character operator ends in NUL, so it stands in for the end *)
  let c2 = if st.pos + 1 < st.len then st.src.[st.pos + 1] else '\000' in
  let op2 (t : Token.t) =
    st.pos <- st.pos + 2;
    t
  in
  let t : Token.t =
    match (c, c2) with
    | '-', '>' -> op2 ARROW
    | '+', '+' -> op2 PLUSPLUS
    | '-', '-' -> op2 MINUSMINUS
    | '+', '=' -> op2 PLUSEQ
    | '-', '=' -> op2 MINUSEQ
    | '*', '=' -> op2 STAREQ
    | '/', '=' -> op2 SLASHEQ
    | '=', '=' -> op2 EQ
    | '!', '=' -> op2 NE
    | '<', '=' -> op2 LE
    | '>', '=' -> op2 GE
    | '<', '<' -> op2 SHL
    | '>', '>' -> op2 SHR
    | '&', '&' -> op2 AMPAMP
    | '|', '|' -> op2 BARBAR
    | '.', '.' ->
      st.pos <- st.pos + 2;
      if is_at st 0 '.' then (skip st; ELLIPSIS)
      else raise (Error ("expected '...'", l))
    | c, _ ->
      skip st;
      (match c with
      | '(' -> LPAREN | ')' -> RPAREN | '{' -> LBRACE | '}' -> RBRACE
      | '[' -> LBRACKET | ']' -> RBRACKET | ';' -> SEMI | ',' -> COMMA
      | '.' -> DOT | ':' -> COLON | '?' -> QUESTION
      | '+' -> PLUS | '-' -> MINUS | '*' -> STAR | '/' -> SLASH
      | '%' -> PERCENT | '=' -> ASSIGN | '<' -> LT | '>' -> GT
      | '!' -> BANG | '&' -> AMP | '|' -> BAR | '^' -> CARET | '~' -> TILDE
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, l)))
  in
  (t, l)

let tokenize src =
  let st = { src; len = String.length src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_ws_and_comments st;
    if st.pos >= st.len then List.rev ((Token.EOF, loc st) :: acc)
    else
      let c = src.[st.pos] in
      if is_digit c then go (lex_number st :: acc)
      else if is_ident_start c then go (lex_ident st :: acc)
      else if c = '"' then go (lex_string st :: acc)
      else if c = '\'' then go (lex_char st :: acc)
      else go (lex_op st :: acc)
  in
  go []
