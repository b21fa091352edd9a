(** The intermediate representation.

    A program is a set of functions over a shared {!Structs.t} record-type
    table. Each function is a control-flow graph of basic blocks holding
    three-address instructions over function-scoped virtual registers.

    Two properties matter for the paper's analyses and transformations:

    - {b field references stay symbolic}: every struct field access goes
      through {!constructor:Ifieldaddr} (and struct-pointer arithmetic
      through {!constructor:Iptradd} carrying the element type), so the
      legality/affinity passes see fields, and the BE transformations can
      retarget them when a type's layout changes;
    - {b loads and stores carry an access tag} naming the (struct, field)
      they touch when known, which is what the PMU sampler uses to attribute
      d-cache misses and latencies back to fields (section 3.1). *)

module Loc = Slo_minic.Loc

type reg = int

type operand =
  | Oreg of reg
  | Oimm of int64
  | Ofimm of float

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne

type unop = Neg | Lnot | Bnot

(** (struct name, field index) tag on memory operations *)
type access = { astruct : string; afield : int }

type cast_info = {
  explicit : bool;     (** written as a cast in the source *)
  from_alloc : bool;   (** source value is directly an allocation result *)
}

type callee =
  | Cdirect of string   (** a function defined in this program *)
  | Cbuiltin of string  (** runtime builtin (malloc family handled separately) *)
  | Cextern of string   (** library function outside the compilation scope *)
  | Cindirect of operand

type alloc_kind = Amalloc | Acalloc | Arealloc of operand

type idesc =
  | Imov of reg * operand
  | Ibin of reg * binop * Irty.t * operand * operand
  | Iun of reg * unop * Irty.t * operand
  | Icast of reg * Irty.t * Irty.t * operand * cast_info
      (** dst, from-type, to-type, value *)
  | Iload of reg * operand * Irty.t * access option
  | Istore of operand * operand * Irty.t * access option  (** addr, value *)
  | Iaddrglob of reg * string
  | Iaddrlocal of reg * string
  | Iaddrstr of reg * string
  | Iaddrfunc of reg * string
  | Ifieldaddr of reg * operand * string * int
      (** dst, base (pointer to struct), struct name, field index *)
  | Iptradd of reg * operand * operand * Irty.t
      (** dst, base, index, element type: dst = base + index * sizeof ty *)
  | Icall of reg option * callee * operand list
  | Ialloc of reg * alloc_kind * operand * Irty.t
      (** dst, kind, element count, element type *)
  | Ifree of operand
  | Imemset of operand * operand * operand * string option
      (** dst, byte value, byte count, struct touched (if known) *)
  | Imemcpy of operand * operand * operand * string option

type instr = { iid : int; iloc : Loc.t; mutable idesc : idesc }

type term =
  | Tjmp of int
  | Tbr of operand * int * int  (** cond, then-target, else-target *)
  | Tret of operand option

type block = {
  bid : int;
  mutable instrs : instr list;
  mutable btermin : term;
  mutable bloc : Loc.t;
}

type func = {
  fname : string;
  fret : Irty.t;
  fparams : (string * Irty.t) list;
  mutable flocals : (string * Irty.t) list;
      (** stack slots; includes parameters *)
  mutable fblocks : block list;  (** entry block first *)
  floc : Loc.t;
  mutable next_reg : int;
  mutable next_block : int;
}

type extern_info = { ename : string; evariadic : bool }

type program = {
  structs : Structs.t;
  mutable globals : (string * Irty.t * int64 option) list;
      (** name, type, constant initialiser *)
  mutable funcs : func list;
  mutable pexterns : extern_info list;
  mutable psizeof_uses : (string * Loc.t) list;
      (** struct names whose [sizeof] escaped into plain arithmetic *)
  mutable next_iid : int;
}

(** {1 Builders and accessors} *)

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let fresh_block f loc =
  let bid = f.next_block in
  f.next_block <- bid + 1;
  let b = { bid; instrs = []; btermin = Tret None; bloc = loc } in
  f.fblocks <- f.fblocks @ [ b ];
  b

let fresh_iid p =
  let i = p.next_iid in
  p.next_iid <- i + 1;
  i

let find_func p name = List.find_opt (fun f -> String.equal f.fname name) p.funcs

let find_block f bid = List.find (fun b -> b.bid = bid) f.fblocks

(* execution starts at the first block of the list *)
let entry_block f = match f.fblocks with b :: _ -> b.bid | [] -> 0

let block_succs b =
  match b.btermin with
  | Tjmp l -> [ l ]
  | Tbr (_, a, c) -> if a = c then [ a ] else [ a; c ]
  | Tret _ -> []

let defined_reg i =
  match i.idesc with
  | Imov (r, _) | Ibin (r, _, _, _, _) | Iun (r, _, _, _)
  | Icast (r, _, _, _, _) | Iload (r, _, _, _) | Iaddrglob (r, _)
  | Iaddrlocal (r, _) | Iaddrstr (r, _) | Iaddrfunc (r, _)
  | Ifieldaddr (r, _, _, _) | Iptradd (r, _, _, _) | Ialloc (r, _, _, _) ->
    Some r
  | Icall (r, _, _) -> r
  | Istore _ | Ifree _ | Imemset _ | Imemcpy _ -> None

(* [fn] over the operands [i] reads, in order, allocating nothing *)
let iter_used_operands fn i =
  match i.idesc with
  | Imov (_, a) | Iun (_, _, _, a) | Icast (_, _, _, a, _) | Ifree a
  | Iload (_, a, _, _) | Ifieldaddr (_, a, _, _) ->
    fn a
  | Ibin (_, _, _, a, b) | Iptradd (_, a, b, _) | Istore (a, b, _, _) ->
    fn a;
    fn b
  | Icall (_, c, args) ->
    (match c with
    | Cindirect o -> fn o
    | Cdirect _ | Cbuiltin _ | Cextern _ -> ());
    List.iter fn args
  | Ialloc (_, k, n, _) ->
    (match k with Arealloc old -> fn old | Amalloc | Acalloc -> ());
    fn n
  | Imemset (a, b, c, _) | Imemcpy (a, b, c, _) ->
    fn a;
    fn b;
    fn c
  | Iaddrglob _ | Iaddrlocal _ | Iaddrstr _ | Iaddrfunc _ -> ()

(** {1 Printing} *)

let string_of_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Band -> "and" | Bor -> "or" | Bxor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"

let string_of_unop = function Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot"

let string_of_operand = function
  | Oreg r -> Printf.sprintf "%%r%d" r
  | Oimm n -> Int64.to_string n
  | Ofimm f -> Printf.sprintf "%g" f

let string_of_access = function
  | None -> ""
  | Some a -> Printf.sprintf "  ; %s.#%d" a.astruct a.afield

let string_of_callee = function
  | Cdirect n -> n
  | Cbuiltin n -> "@" ^ n
  | Cextern n -> "!" ^ n
  | Cindirect o -> "*" ^ string_of_operand o

let string_of_instr i =
  let op = string_of_operand in
  match i.idesc with
  | Imov (r, a) -> Printf.sprintf "%%r%d = mov %s" r (op a)
  | Ibin (r, b, t, x, y) ->
    Printf.sprintf "%%r%d = %s.%s %s, %s" r (string_of_binop b)
      (Irty.to_string t) (op x) (op y)
  | Iun (r, u, t, x) ->
    Printf.sprintf "%%r%d = %s.%s %s" r (string_of_unop u) (Irty.to_string t)
      (op x)
  | Icast (r, from_, to_, x, info) ->
    Printf.sprintf "%%r%d = cast %s -> %s, %s%s%s" r (Irty.to_string from_)
      (Irty.to_string to_) (op x)
      (if info.explicit then " [explicit]" else "")
      (if info.from_alloc then " [from-alloc]" else "")
  | Iload (r, a, t, acc) ->
    Printf.sprintf "%%r%d = load.%s %s%s" r (Irty.to_string t) (op a)
      (string_of_access acc)
  | Istore (a, v, t, acc) ->
    Printf.sprintf "store.%s %s <- %s%s" (Irty.to_string t) (op a) (op v)
      (string_of_access acc)
  | Iaddrglob (r, g) -> Printf.sprintf "%%r%d = addr_glob %s" r g
  | Iaddrlocal (r, l) -> Printf.sprintf "%%r%d = addr_local %s" r l
  | Iaddrstr (r, s) -> Printf.sprintf "%%r%d = addr_str %S" r s
  | Iaddrfunc (r, f) -> Printf.sprintf "%%r%d = addr_func %s" r f
  | Ifieldaddr (r, b, s, fi) ->
    Printf.sprintf "%%r%d = fieldaddr %s, %s.#%d" r (op b) s fi
  | Iptradd (r, b, idx, t) ->
    Printf.sprintf "%%r%d = ptradd %s, %s x sizeof(%s)" r (op b) (op idx)
      (Irty.to_string t)
  | Icall (r, c, args) ->
    Printf.sprintf "%scall %s(%s)"
      (match r with Some r -> Printf.sprintf "%%r%d = " r | None -> "")
      (string_of_callee c)
      (String.concat ", " (List.map op args))
  | Ialloc (r, k, n, t) ->
    let ks =
      match k with
      | Amalloc -> "malloc"
      | Acalloc -> "calloc"
      | Arealloc o -> Printf.sprintf "realloc(%s)" (op o)
    in
    Printf.sprintf "%%r%d = %s %s x %s" r ks (op n) (Irty.to_string t)
  | Ifree a -> Printf.sprintf "free %s" (op a)
  | Imemset (d, v, n, s) ->
    Printf.sprintf "memset %s, %s, %s%s" (op d) (op v) (op n)
      (match s with Some s -> " ; struct " ^ s | None -> "")
  | Imemcpy (d, sr, n, s) ->
    Printf.sprintf "memcpy %s, %s, %s%s" (op d) (op sr) (op n)
      (match s with Some s -> " ; struct " ^ s | None -> "")

let string_of_term = function
  | Tjmp l -> Printf.sprintf "jmp B%d" l
  | Tbr (c, a, b) -> Printf.sprintf "br %s, B%d, B%d" (string_of_operand c) a b
  | Tret None -> "ret"
  | Tret (Some o) -> "ret " ^ string_of_operand o

let string_of_block b =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "B%d:   ; line %d\n" b.bid b.bloc.line);
  List.iter
    (fun i -> Buffer.add_string buf ("  " ^ string_of_instr i ^ "\n"))
    b.instrs;
  Buffer.add_string buf ("  " ^ string_of_term b.btermin ^ "\n");
  Buffer.contents buf

let string_of_func f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s) : %s\n" f.fname
       (String.concat ", "
          (List.map (fun (n, t) -> Irty.to_string t ^ " " ^ n) f.fparams))
       (Irty.to_string f.fret));
  List.iter
    (fun (n, t) ->
      Buffer.add_string buf (Printf.sprintf "  local %s : %s\n" n (Irty.to_string t)))
    f.flocals;
  List.iter (fun b -> Buffer.add_string buf (string_of_block b)) f.fblocks;
  Buffer.contents buf

let string_of_program p =
  let buf = Buffer.create 2048 in
  Structs.iter
    (fun d ->
      Buffer.add_string buf (Printf.sprintf "struct %s {" d.sname);
      Array.iter
        (fun (f : Structs.field) ->
          Buffer.add_string buf
            (Printf.sprintf " %s %s;" (Irty.to_string f.ty) f.name))
        d.fields;
      Buffer.add_string buf " }\n")
    p.structs;
  List.iter
    (fun (n, t, init) ->
      Buffer.add_string buf
        (Printf.sprintf "global %s : %s%s\n" n (Irty.to_string t)
           (match init with
           | Some v -> " = " ^ Int64.to_string v
           | None -> "")))
    p.globals;
  List.iter
    (fun f -> Buffer.add_string buf ("\n" ^ string_of_func f))
    p.funcs;
  Buffer.contents buf
