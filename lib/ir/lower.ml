module Ast = Slo_minic.Ast
module Typecheck = Slo_minic.Typecheck
module Loc = Slo_minic.Loc

exception Unsupported of string * Loc.t

let unsupported loc fmt =
  Printf.ksprintf (fun s -> raise (Unsupported (s, loc))) fmt

type ctx = {
  env : Typecheck.env;
  prog : Ir.program;
  layout : Layout.t;
  func : Ir.func;
  fret_ast : Ast.ty;
  mutable cur : Ir.block;
  mutable cur_rev : Ir.instr list;  (* instrs of [cur], reversed *)
  mutable terminated : bool;
  mutable scopes : (string * string) list list;  (* source name -> slot *)
  mutable slot_counter : int;
  slot_tys : (string, Irty.t) Hashtbl.t;  (* slot -> declared type *)
  mutable breaks : int list;
  mutable continues : int list;
  alloc_regs : (Ir.reg, unit) Hashtbl.t;  (* regs holding fresh alloc results *)
}

(* ------------------------------------------------------------------ *)
(* Block plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let flush ctx = ctx.cur.instrs <- List.rev ctx.cur_rev

let switch_to ctx (b : Ir.block) =
  flush ctx;
  ctx.cur <- b;
  ctx.cur_rev <- List.rev b.instrs;
  ctx.terminated <- false

let new_block ctx loc = Ir.fresh_block ctx.func loc

let emit ctx loc desc =
  if not ctx.terminated then begin
    let i = { Ir.iid = Ir.fresh_iid ctx.prog; iloc = loc; idesc = desc } in
    ctx.cur_rev <- i :: ctx.cur_rev
  end

let terminate ctx term =
  if not ctx.terminated then begin
    ctx.cur.btermin <- term;
    ctx.terminated <- true
  end

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let push_scope ctx = ctx.scopes <- [] :: ctx.scopes
let pop_scope ctx =
  match ctx.scopes with
  | _ :: rest -> ctx.scopes <- rest
  | [] -> assert false

let declare_local ctx name ty =
  let slot =
    if List.exists (fun (n, _) -> String.equal n name) ctx.func.Ir.flocals then begin
      ctx.slot_counter <- ctx.slot_counter + 1;
      Printf.sprintf "%s.%d" name ctx.slot_counter
    end
    else name
  in
  ctx.func.Ir.flocals <- ctx.func.Ir.flocals @ [ (slot, ty) ];
  Hashtbl.replace ctx.slot_tys slot ty;
  (match ctx.scopes with
  | top :: rest -> ctx.scopes <- ((name, slot) :: top) :: rest
  | [] -> assert false);
  slot

let find_local ctx name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
      match List.assoc_opt name scope with
      | Some slot -> Some slot
      | None -> go rest)
  in
  go ctx.scopes

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let ir_ty (t : Ast.ty) : Irty.t = Irty.of_ast t
let decay_ast (t : Ast.ty) = match t with Ast.Tarray (u, _) -> Ast.Tptr u | t -> t

(* the type of a variable's address. Not from the expression's type: the
   checker retypes a called function pointer to the function itself. *)
let place_addr_ty ctx = function
  | `Local slot -> Irty.Ptr (Hashtbl.find ctx.slot_tys slot)
  | `Global g -> Irty.Ptr (ir_ty (Hashtbl.find ctx.env.Typecheck.globals g))

let ety e = e.Ast.ety
let decayed_ety e = decay_ast (ety e)

let arith_ty a b : Irty.t =
  match (ir_ty a, ir_ty b) with
  | Irty.Double, _ | _, Irty.Double -> Irty.Double
  | Irty.Float, _ | _, Irty.Float -> Irty.Float
  | Irty.Long, _ | _, Irty.Long -> Irty.Long
  | _ -> Irty.Int

let binop_of_ast : Ast.binop -> Ir.binop = function
  | Ast.Add -> Ir.Add | Ast.Sub -> Ir.Sub | Ast.Mul -> Ir.Mul
  | Ast.Div -> Ir.Div | Ast.Mod -> Ir.Mod
  | Ast.Lt -> Ir.Lt | Ast.Le -> Ir.Le | Ast.Gt -> Ir.Gt | Ast.Ge -> Ir.Ge
  | Ast.Eq -> Ir.Eq | Ast.Ne -> Ir.Ne
  | Ast.Band -> Ir.Band | Ast.Bor -> Ir.Bor | Ast.Bxor -> Ir.Bxor
  | Ast.Shl -> Ir.Shl | Ast.Shr -> Ir.Shr
  | Ast.And | Ast.Or -> assert false (* lowered to control flow *)

(* emit a conversion if the value types differ in representation *)
let convert ctx loc (v : Ir.operand) (from_ : Ast.ty) (to_ : Ast.ty) : Ir.operand =
  let fi = ir_ty (decay_ast from_) and ti = ir_ty (decay_ast to_) in
  let needs_cast =
    match (fi, ti) with
    | a, b when Irty.equal a b -> false
    | (Irty.Float | Irty.Double), (Irty.Float | Irty.Double) -> true
    | (Irty.Float | Irty.Double), _ | _, (Irty.Float | Irty.Double) -> true
    | Irty.Ptr _, Irty.Ptr _ -> true  (* pointer retype: legality cares *)
    | _ -> false  (* integer width changes are free in the VM *)
  in
  if not needs_cast then v
  else begin
    let r = Ir.fresh_reg ctx.func ti in
    let from_alloc =
      match v with Ir.Oreg vr -> Hashtbl.mem ctx.alloc_regs vr | Ir.Oimm _ | Ir.Ofimm _ -> false
    in
    emit ctx loc (Ir.Icast (r, fi, ti, v, { explicit = false; from_alloc }));
    if from_alloc then Hashtbl.replace ctx.alloc_regs r ();
    Ir.Oreg r
  end

let sizeof_ast ctx (t : Ast.ty) = Layout.sizeof ctx.layout (ir_ty t)

(* ------------------------------------------------------------------ *)
(* Allocation pattern recognition                                      *)
(* ------------------------------------------------------------------ *)

(* match an allocation-size expression against [n * sizeof(T)],
   [sizeof(T) * n] or [sizeof(T)]; returns the count expression (None = 1)
   and the element AST type *)
let match_alloc_size (arg : Ast.expr) : (Ast.expr option * Ast.ty) option =
  match arg.edesc with
  | Ast.Esizeof t -> Some (None, t)
  | Ast.Ebin (Ast.Mul, { edesc = Ast.Esizeof t; _ }, n) -> Some (Some n, t)
  | Ast.Ebin (Ast.Mul, n, { edesc = Ast.Esizeof t; _ }) -> Some (Some n, t)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec rval ctx (e : Ast.expr) : Ir.operand =
  let loc = e.eloc in
  match e.edesc with
  | Ast.Eint n -> Ir.Oimm n
  | Ast.Efloat f -> Ir.Ofimm f
  | Ast.Estr s ->
    let r = Ir.fresh_reg ctx.func (Irty.Ptr Irty.Char) in
    emit ctx loc (Ir.Iaddrstr (r, s));
    Ir.Oreg r
  | Ast.Evar name -> (
    match find_local ctx name with
    | Some slot -> load_location ctx loc (`Local slot) (ety e) None
    | None ->
      if Hashtbl.mem ctx.env.globals name then
        load_location ctx loc (`Global name) (ety e) None
      else begin
        (* function designator *)
        let r = Ir.fresh_reg ctx.func Irty.Funptr in
        emit ctx loc (Ir.Iaddrfunc (r, name));
        Ir.Oreg r
      end)
  | Ast.Ebin ((Ast.And | Ast.Or) as op, a, b) -> short_circuit ctx loc op a b
  | Ast.Ebin (op, a, b) -> lower_binop ctx loc op a b
  | Ast.Eun (op, a) ->
    let v = rval ctx a in
    let r = Ir.fresh_reg ctx.func (ir_ty (ety e)) in
    let u =
      match op with Ast.Neg -> Ir.Neg | Ast.Lnot -> Ir.Lnot | Ast.Bnot -> Ir.Bnot
    in
    emit ctx loc (Ir.Iun (r, u, ir_ty (decayed_ety a), v));
    Ir.Oreg r
  | Ast.Eincr (kind, a) -> lower_incr ctx loc kind a
  | Ast.Eassign (l, r) ->
    (match decay_ast (ety l) with
    | Ast.Tstruct s -> unsupported loc "whole-struct assignment of '%s'" s
    | _ -> ());
    let v = rval ctx r in
    let v = convert ctx loc v (ety r) (ety l) in
    let addr, lty, acc = lval ctx l in
    emit ctx loc (Ir.Istore (addr, v, ir_ty (decay_ast lty), acc));
    v
  | Ast.Ecall (callee, args) -> lower_call ctx loc e callee args
  | Ast.Efield _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Ederef _ ->
    let addr, lty, acc = lval ctx e in
    (match lty with
    | Ast.Tarray _ | Ast.Tstruct _ -> addr (* decay / aggregate base *)
    | _ ->
      let t = ir_ty lty in
      let r = Ir.fresh_reg ctx.func t in
      emit ctx loc (Ir.Iload (r, addr, t, acc));
      Ir.Oreg r)
  | Ast.Eaddr a -> (
    match a.edesc with
    | Ast.Evar name
      when find_local ctx name = None
           && not (Hashtbl.mem ctx.env.globals name) ->
      let r = Ir.fresh_reg ctx.func Irty.Funptr in
      emit ctx loc (Ir.Iaddrfunc (r, name));
      Ir.Oreg r
    | _ ->
      let addr, _, _ = lval ctx a in
      addr)
  | Ast.Ecast (t, a) ->
    let v = rval ctx a in
    let from_ = decayed_ety a in
    let fi = ir_ty from_ and ti = ir_ty t in
    if Irty.equal fi ti then v
    else begin
      let r = Ir.fresh_reg ctx.func ti in
      let from_alloc =
        match v with
        | Ir.Oreg vr -> Hashtbl.mem ctx.alloc_regs vr
        | Ir.Oimm _ | Ir.Ofimm _ -> false
      in
      emit ctx loc (Ir.Icast (r, fi, ti, v, { explicit = true; from_alloc }));
      if from_alloc then Hashtbl.replace ctx.alloc_regs r ();
      Ir.Oreg r
    end
  | Ast.Esizeof t ->
    record_sizeof_use ctx loc t;
    Ir.Oimm (Int64.of_int (sizeof_ast ctx t))
  | Ast.Econd (c, a, b) ->
    let cv = rval ctx c in
    let then_b = new_block ctx loc in
    let else_b = new_block ctx loc in
    let join = new_block ctx loc in
    let r = Ir.fresh_reg ctx.func (ir_ty (ety e)) in
    terminate ctx (Ir.Tbr (cv, then_b.bid, else_b.bid));
    switch_to ctx then_b;
    let av = rval ctx a in
    emit ctx loc (Ir.Imov (r, av));
    terminate ctx (Ir.Tjmp join.bid);
    switch_to ctx else_b;
    let bv = rval ctx b in
    emit ctx loc (Ir.Imov (r, bv));
    terminate ctx (Ir.Tjmp join.bid);
    switch_to ctx join;
    Ir.Oreg r

and record_sizeof_use ctx loc (t : Ast.ty) =
  let rec struct_of = function
    | Ast.Tstruct s -> Some s
    | Ast.Tarray (u, _) -> struct_of u
    | _ -> None
  in
  match struct_of t with
  | Some s -> ctx.prog.psizeof_uses <- (s, loc) :: ctx.prog.psizeof_uses
  | None -> ()

and load_location ctx loc place (t : Ast.ty) acc : Ir.operand =
  let r = Ir.fresh_reg ctx.func (place_addr_ty ctx place) in
  (match place with
  | `Local slot -> emit ctx loc (Ir.Iaddrlocal (r, slot))
  | `Global g -> emit ctx loc (Ir.Iaddrglob (r, g)));
  match t with
  | Ast.Tarray _ | Ast.Tstruct _ -> Ir.Oreg r (* decay to address *)
  | _ ->
    let t = ir_ty t in
    let v = Ir.fresh_reg ctx.func t in
    emit ctx loc (Ir.Iload (v, Ir.Oreg r, t, acc));
    Ir.Oreg v

and short_circuit ctx loc op a b =
  let r = Ir.fresh_reg ctx.func Irty.Int in
  let av = rval ctx a in
  let rhs_b = new_block ctx loc in
  let done_b = new_block ctx loc in
  (* normalise lhs to 0/1 into r, then evaluate rhs only if needed *)
  let norm = Ir.fresh_reg ctx.func Irty.Int in
  emit ctx loc (Ir.Ibin (norm, Ir.Ne, Irty.Long, av, Ir.Oimm 0L));
  emit ctx loc (Ir.Imov (r, Ir.Oreg norm));
  (match op with
  | Ast.And -> terminate ctx (Ir.Tbr (Ir.Oreg norm, rhs_b.bid, done_b.bid))
  | Ast.Or -> terminate ctx (Ir.Tbr (Ir.Oreg norm, done_b.bid, rhs_b.bid))
  | _ -> assert false);
  switch_to ctx rhs_b;
  let bv = rval ctx b in
  let norm2 = Ir.fresh_reg ctx.func Irty.Int in
  emit ctx loc (Ir.Ibin (norm2, Ir.Ne, Irty.Long, bv, Ir.Oimm 0L));
  emit ctx loc (Ir.Imov (r, Ir.Oreg norm2));
  terminate ctx (Ir.Tjmp done_b.bid);
  switch_to ctx done_b;
  Ir.Oreg r

and lower_binop ctx loc op a b =
  let ta = decayed_ety a and tb = decayed_ety b in
  match (op, ta, tb) with
  | (Ast.Add | Ast.Sub), Ast.Tptr elem, ti when Ast.is_integer ti ->
    let base = rval ctx a in
    let idx = rval ctx b in
    let idx =
      if op = Ast.Sub then begin
        let n = Ir.fresh_reg ctx.func Irty.Long in
        emit ctx loc (Ir.Iun (n, Ir.Neg, Irty.Long, idx));
        Ir.Oreg n
      end
      else idx
    in
    let elem = ir_ty elem in
    let r = Ir.fresh_reg ctx.func (Irty.Ptr elem) in
    emit ctx loc (Ir.Iptradd (r, base, idx, elem));
    Ir.Oreg r
  | Ast.Add, ti, Ast.Tptr elem when Ast.is_integer ti ->
    let idx = rval ctx a in
    let base = rval ctx b in
    let elem = ir_ty elem in
    let r = Ir.fresh_reg ctx.func (Irty.Ptr elem) in
    emit ctx loc (Ir.Iptradd (r, base, idx, elem));
    Ir.Oreg r
  | Ast.Sub, Ast.Tptr elem, Ast.Tptr _ ->
    let x = rval ctx a and y = rval ctx b in
    let d = Ir.fresh_reg ctx.func Irty.Long in
    emit ctx loc (Ir.Ibin (d, Ir.Sub, Irty.Long, x, y));
    let r = Ir.fresh_reg ctx.func Irty.Long in
    emit ctx loc
      (Ir.Ibin (r, Ir.Div, Irty.Long, Ir.Oreg d,
                Ir.Oimm (Int64.of_int (sizeof_ast ctx elem))));
    Ir.Oreg r
  | _ ->
    let x = rval ctx a and y = rval ctx b in
    let t =
      match op with
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
        if Ast.is_pointer ta || Ast.is_pointer tb then Irty.Long
        else arith_ty ta tb
      | _ -> arith_ty ta tb
    in
    (* promote integer operands when the operation is floating *)
    let x = if Irty.is_float_ty t then convert ctx loc x ta Ast.Tdouble else x in
    let y = if Irty.is_float_ty t then convert ctx loc y tb Ast.Tdouble else y in
    let op = binop_of_ast op in
    let r = Ir.fresh_reg ctx.func (Ir.binop_ty op t) in
    emit ctx loc (Ir.Ibin (r, op, t, x, y));
    Ir.Oreg r

and lower_incr ctx loc kind a =
  let addr, lty, acc = lval ctx a in
  let lt = ir_ty (decay_ast lty) in
  let old = Ir.fresh_reg ctx.func lt in
  emit ctx loc (Ir.Iload (old, addr, lt, acc));
  let one = 1L in
  let nv = Ir.fresh_reg ctx.func lt in
  (match decay_ast lty with
  | Ast.Tptr elem ->
    let delta =
      match kind with
      | Ast.Preinc | Ast.Postinc -> Ir.Oimm one
      | Ast.Predec | Ast.Postdec -> Ir.Oimm (-1L)
    in
    emit ctx loc (Ir.Iptradd (nv, Ir.Oreg old, delta, ir_ty elem))
  | t ->
    let op =
      match kind with
      | Ast.Preinc | Ast.Postinc -> Ir.Add
      | Ast.Predec | Ast.Postdec -> Ir.Sub
    in
    let it = ir_ty t in
    let one_op = if Irty.is_float_ty it then Ir.Ofimm 1.0 else Ir.Oimm one in
    emit ctx loc (Ir.Ibin (nv, op, it, Ir.Oreg old, one_op)));
  emit ctx loc (Ir.Istore (addr, Ir.Oreg nv, ir_ty (decay_ast lty), acc));
  match kind with
  | Ast.Preinc | Ast.Predec -> Ir.Oreg nv
  | Ast.Postinc | Ast.Postdec -> Ir.Oreg old

and lower_call ctx loc (e : Ast.expr) callee args =
  match callee.edesc with
  | Ast.Evar "malloc" -> lower_alloc ctx loc Ir.Amalloc args
  | Ast.Evar "calloc" -> lower_calloc ctx loc args
  | Ast.Evar "realloc" -> lower_realloc ctx loc args
  | Ast.Evar "free" -> (
    match args with
    | [ p ] ->
      let pv = rval ctx p in
      emit ctx loc (Ir.Ifree pv);
      Ir.Oimm 0L
    | _ -> unsupported loc "free takes one argument")
  | Ast.Evar "memset" -> (
    match args with
    | [ p; v; n ] ->
      let tag = struct_pointee (decayed_ety p) in
      let pv = rval ctx p and vv = rval ctx v and nv = rval ctx n in
      emit ctx loc (Ir.Imemset (pv, vv, nv, tag));
      Ir.Oimm 0L
    | _ -> unsupported loc "memset takes three arguments")
  | Ast.Evar "memcpy" -> (
    match args with
    | [ d; s; n ] ->
      let tag =
        match struct_pointee (decayed_ety d) with
        | Some t -> Some t
        | None -> struct_pointee (decayed_ety s)
      in
      let dv = rval ctx d and sv = rval ctx s and nv = rval ctx n in
      emit ctx loc (Ir.Imemcpy (dv, sv, nv, tag));
      Ir.Oimm 0L
    | _ -> unsupported loc "memcpy takes three arguments")
  | Ast.Evar name ->
    let argvs = List.map (fun a -> rval ctx a) args in
    let kind =
      if Hashtbl.mem ctx.env.funcs name then Ir.Cdirect name
      else if Hashtbl.mem ctx.env.externs name then Ir.Cextern name
      else if Typecheck.is_builtin name then Ir.Cbuiltin name
      else (
        (* a variable holding a function pointer *)
        match find_local ctx name with
        | Some _ -> Ir.Cindirect (rval ctx callee)
        | None ->
          if Hashtbl.mem ctx.env.globals name then
            Ir.Cindirect (rval ctx callee)
          else Ir.Cextern name)
    in
    finish_call ctx loc e kind argvs
  | _ ->
    let argvs = List.map (fun a -> rval ctx a) args in
    let f = rval ctx callee in
    finish_call ctx loc e (Ir.Cindirect f) argvs

and finish_call ctx loc e kind argvs =
  let want_result = not (Ast.ty_equal e.ety Ast.Tvoid) in
  if want_result then begin
    let r = Ir.fresh_reg ctx.func (ir_ty e.ety) in
    emit ctx loc (Ir.Icall (Some r, kind, argvs));
    Ir.Oreg r
  end
  else begin
    emit ctx loc (Ir.Icall (None, kind, argvs));
    Ir.Oimm 0L
  end

and struct_pointee = function
  | Ast.Tptr (Ast.Tstruct s) -> Some s
  | _ -> None

and lower_alloc ctx loc kind args =
  match args with
  | [ size ] ->
    let count, elem =
      match match_alloc_size size with
      | Some (n, t) -> (n, t)
      | None -> (Some size, Ast.Tchar)
    in
    let count_v =
      match count with None -> Ir.Oimm 1L | Some n -> rval ctx n
    in
    let elem = ir_ty elem in
    let r = Ir.fresh_reg ctx.func (Irty.Ptr elem) in
    emit ctx loc (Ir.Ialloc (r, kind, count_v, elem));
    Hashtbl.replace ctx.alloc_regs r ();
    Ir.Oreg r
  | _ -> unsupported loc "malloc takes one argument"

and lower_calloc ctx loc args =
  match args with
  | [ n; size ] -> (
    match match_alloc_size size with
    | Some (None, t) ->
      let count_v = rval ctx n in
      let t = ir_ty t in
      let r = Ir.fresh_reg ctx.func (Irty.Ptr t) in
      emit ctx loc (Ir.Ialloc (r, Ir.Acalloc, count_v, t));
      Hashtbl.replace ctx.alloc_regs r ();
      Ir.Oreg r
    | Some _ | None ->
      (* byte-typed fallback: calloc(n, k) *)
      let nv = rval ctx n and sv = rval ctx size in
      let total = Ir.fresh_reg ctx.func Irty.Long in
      emit ctx loc (Ir.Ibin (total, Ir.Mul, Irty.Long, nv, sv));
      let r = Ir.fresh_reg ctx.func (Irty.Ptr Irty.Char) in
      emit ctx loc (Ir.Ialloc (r, Ir.Acalloc, Ir.Oreg total, Irty.Char));
      Hashtbl.replace ctx.alloc_regs r ();
      Ir.Oreg r)
  | _ -> unsupported loc "calloc takes two arguments"

and lower_realloc ctx loc args =
  match args with
  | [ p; size ] ->
    let pv = rval ctx p in
    let count, elem =
      match match_alloc_size size with
      | Some (n, t) -> (n, t)
      | None -> (Some size, Ast.Tchar)
    in
    let count_v = match count with None -> Ir.Oimm 1L | Some n -> rval ctx n in
    let elem = ir_ty elem in
    let r = Ir.fresh_reg ctx.func (Irty.Ptr elem) in
    emit ctx loc (Ir.Ialloc (r, Ir.Arealloc pv, count_v, elem));
    Hashtbl.replace ctx.alloc_regs r ();
    Ir.Oreg r
  | _ -> unsupported loc "realloc takes two arguments"

(* lvalue: address operand, AST type of the location, access tag *)
and lval ctx (e : Ast.expr) : Ir.operand * Ast.ty * Ir.access option =
  let loc = e.eloc in
  match e.edesc with
  | Ast.Evar name -> (
    match find_local ctx name with
    | Some slot ->
      let r = Ir.fresh_reg ctx.func (place_addr_ty ctx (`Local slot)) in
      emit ctx loc (Ir.Iaddrlocal (r, slot));
      (Ir.Oreg r, ety e, None)
    | None ->
      if Hashtbl.mem ctx.env.globals name then begin
        let r = Ir.fresh_reg ctx.func (place_addr_ty ctx (`Global name)) in
        emit ctx loc (Ir.Iaddrglob (r, name));
        (Ir.Oreg r, ety e, None)
      end
      else unsupported loc "cannot take location of function '%s'" name)
  | Ast.Ederef p ->
    let pv = rval ctx p in
    (pv, ety e, None)
  | Ast.Eindex (b, i) -> (
    let bt = decayed_ety b in
    match bt with
    | Ast.Tptr elem ->
      let bv = rval ctx b in
      let iv = rval ctx i in
      let et = ir_ty elem in
      let r = Ir.fresh_reg ctx.func (Irty.Ptr et) in
      emit ctx loc (Ir.Iptradd (r, bv, iv, et));
      (Ir.Oreg r, elem, None)
    | _ -> unsupported loc "subscript of non-pointer")
  | Ast.Efield (b, fname) -> (
    let baddr, bty, _ = lval ctx b in
    match decay_ast bty with
    | Ast.Tstruct s ->
      let idx = Typecheck.field_index ctx.env s fname in
      let r = Ir.fresh_reg ctx.func (Irty.Ptr (ir_ty (ety e))) in
      emit ctx loc (Ir.Ifieldaddr (r, baddr, s, idx));
      (Ir.Oreg r, ety e, Some { Ir.astruct = s; afield = idx })
    | _ -> unsupported loc "field access on non-struct")
  | Ast.Earrow (b, fname) -> (
    let bv = rval ctx b in
    match decayed_ety b with
    | Ast.Tptr (Ast.Tstruct s) ->
      let idx = Typecheck.field_index ctx.env s fname in
      let r = Ir.fresh_reg ctx.func (Irty.Ptr (ir_ty (ety e))) in
      emit ctx loc (Ir.Ifieldaddr (r, bv, s, idx));
      (Ir.Oreg r, ety e, Some { Ir.astruct = s; afield = idx })
    | _ -> unsupported loc "'->' on non-struct-pointer")
  | Ast.Eint _ | Ast.Efloat _ | Ast.Estr _ | Ast.Ebin _ | Ast.Eun _
  | Ast.Eincr _ | Ast.Eassign _ | Ast.Ecall _ | Ast.Eaddr _ | Ast.Ecast _
  | Ast.Esizeof _ | Ast.Econd _ ->
    unsupported loc "expression is not an lvalue"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmts ctx (stmts : Ast.stmt list) =
  List.iter (lower_stmt ctx) stmts

and lower_stmt ctx (s : Ast.stmt) =
  let loc = s.sloc in
  if ctx.terminated then begin
    (* dead code after return/break: park it in an unreachable block *)
    let b = new_block ctx loc in
    switch_to ctx b
  end;
  match s.sdesc with
  | Ast.Sexpr e -> ignore (rval ctx e)
  | Ast.Sdecl (t, name, init) ->
    let slot = declare_local ctx name (ir_ty t) in
    (match init with
    | None -> ()
    | Some e ->
      let v = rval ctx e in
      let v = convert ctx loc v (ety e) t in
      let r = Ir.fresh_reg ctx.func (Irty.Ptr (ir_ty t)) in
      emit ctx loc (Ir.Iaddrlocal (r, slot));
      emit ctx loc (Ir.Istore (Ir.Oreg r, v, ir_ty (decay_ast t), None)))
  | Ast.Sif (c, then_s, else_s) ->
    let cv = rval ctx c in
    let then_b = new_block ctx loc in
    let else_b = new_block ctx loc in
    let join = new_block ctx loc in
    terminate ctx (Ir.Tbr (cv, then_b.bid, else_b.bid));
    switch_to ctx then_b;
    push_scope ctx;
    lower_stmts ctx then_s;
    pop_scope ctx;
    terminate ctx (Ir.Tjmp join.bid);
    switch_to ctx else_b;
    push_scope ctx;
    lower_stmts ctx else_s;
    pop_scope ctx;
    terminate ctx (Ir.Tjmp join.bid);
    switch_to ctx join
  | Ast.Swhile (c, body) ->
    let header = new_block ctx loc in
    let body_b = new_block ctx loc in
    let exit_b = new_block ctx loc in
    terminate ctx (Ir.Tjmp header.bid);
    switch_to ctx header;
    let cv = rval ctx c in
    terminate ctx (Ir.Tbr (cv, body_b.bid, exit_b.bid));
    switch_to ctx body_b;
    ctx.breaks <- exit_b.bid :: ctx.breaks;
    ctx.continues <- header.bid :: ctx.continues;
    push_scope ctx;
    lower_stmts ctx body;
    pop_scope ctx;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    terminate ctx (Ir.Tjmp header.bid);
    switch_to ctx exit_b
  | Ast.Sdo (body, c) ->
    let body_b = new_block ctx loc in
    let cond_b = new_block ctx loc in
    let exit_b = new_block ctx loc in
    terminate ctx (Ir.Tjmp body_b.bid);
    switch_to ctx body_b;
    ctx.breaks <- exit_b.bid :: ctx.breaks;
    ctx.continues <- cond_b.bid :: ctx.continues;
    push_scope ctx;
    lower_stmts ctx body;
    pop_scope ctx;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    terminate ctx (Ir.Tjmp cond_b.bid);
    switch_to ctx cond_b;
    let cv = rval ctx c in
    terminate ctx (Ir.Tbr (cv, body_b.bid, exit_b.bid));
    switch_to ctx exit_b
  | Ast.Sfor (init, cond, step, body) ->
    push_scope ctx;
    Option.iter (lower_stmt ctx) init;
    let header = new_block ctx loc in
    let body_b = new_block ctx loc in
    let step_b = new_block ctx loc in
    let exit_b = new_block ctx loc in
    terminate ctx (Ir.Tjmp header.bid);
    switch_to ctx header;
    (match cond with
    | None -> terminate ctx (Ir.Tjmp body_b.bid)
    | Some c ->
      let cv = rval ctx c in
      terminate ctx (Ir.Tbr (cv, body_b.bid, exit_b.bid)));
    switch_to ctx body_b;
    ctx.breaks <- exit_b.bid :: ctx.breaks;
    ctx.continues <- step_b.bid :: ctx.continues;
    push_scope ctx;
    lower_stmts ctx body;
    pop_scope ctx;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    terminate ctx (Ir.Tjmp step_b.bid);
    switch_to ctx step_b;
    Option.iter (fun e -> ignore (rval ctx e)) step;
    terminate ctx (Ir.Tjmp header.bid);
    switch_to ctx exit_b;
    pop_scope ctx
  | Ast.Sreturn eo ->
    let v =
      Option.map
        (fun e ->
          let v = rval ctx e in
          convert ctx loc v (ety e) ctx.fret_ast)
        eo
    in
    terminate ctx (Ir.Tret v)
  | Ast.Sbreak -> (
    match ctx.breaks with
    | t :: _ -> terminate ctx (Ir.Tjmp t)
    | [] -> unsupported loc "break outside loop")
  | Ast.Scontinue -> (
    match ctx.continues with
    | t :: _ -> terminate ctx (Ir.Tjmp t)
    | [] -> unsupported loc "continue outside loop")
  | Ast.Sblock body ->
    push_scope ctx;
    lower_stmts ctx body;
    pop_scope ctx

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let lower_func env prog layout (fd : Ast.func_decl) : Ir.func =
  let func =
    {
      Ir.fname = fd.funname;
      fret = ir_ty fd.funret;
      fparams = List.map (fun (t, n) -> (n, ir_ty t)) fd.funparams;
      flocals = [];
      fblocks = [];
      floc = fd.funloc;
      next_reg = 0;
      regtys = [||];
      next_block = 0;
    }
  in
  let entry =
    let b =
      { Ir.bid = 0; instrs = []; btermin = Ir.Tret None; bloc = fd.funloc }
    in
    func.next_block <- 1;
    func.fblocks <- [ b ];
    b
  in
  let ctx =
    {
      env; prog; layout; func; fret_ast = fd.funret; cur = entry;
      cur_rev = []; terminated = false;
      scopes = [ [] ]; slot_counter = 0; slot_tys = Hashtbl.create 16;
      breaks = []; continues = [];
      alloc_regs = Hashtbl.create 16;
    }
  in
  (* parameters become ordinary slots; the VM stores arguments into them *)
  List.iter
    (fun (t, n) -> ignore (declare_local ctx n (ir_ty t)))
    fd.funparams;
  lower_stmts ctx fd.funbody;
  if not ctx.terminated then
    terminate ctx
      (if String.equal fd.funname "main" then Ir.Tret (Some (Ir.Oimm 0L))
       else Ir.Tret None);
  flush ctx;
  func

let lower (prog_ast : Ast.program) (env : Typecheck.env) : Ir.program =
  let structs = Structs.create () in
  Hashtbl.iter
    (fun name (sd : Ast.struct_decl) ->
      Structs.define structs name
        (List.map
           (fun (f : Ast.field_decl) ->
             { Structs.name = f.fname; ty = ir_ty f.fty; bits = f.fbits })
           sd.sfields))
    env.structs;
  let prog =
    {
      Ir.structs; globals = []; funcs = []; pexterns = [];
      psizeof_uses = []; next_iid = 0;
    }
  in
  let layout = Layout.create structs in
  List.iter
    (fun d ->
      match d with
      | Ast.Dglobal g ->
        let init =
          match g.ginit with
          | None -> None
          | Some { edesc = Ast.Eint n; _ } -> Some n
          | Some { edesc = Ast.Efloat f; _ } ->
            Some (Int64.bits_of_float f)
          | Some { edesc = Ast.Eun (Ast.Neg, { edesc = Ast.Eint n; _ }); _ } ->
            Some (Int64.neg n)
          | Some e ->
            unsupported e.eloc "global initialiser must be a constant"
        in
        prog.globals <- prog.globals @ [ (g.gname, ir_ty g.gty, init) ]
      | Ast.Dextern e ->
        prog.pexterns <-
          prog.pexterns @ [ { Ir.ename = e.exname; evariadic = e.exvariadic } ]
      | Ast.Dstruct _ | Ast.Dtypedef _ | Ast.Dfunc _ -> ())
    prog_ast;
  List.iter
    (fun d ->
      match d with
      | Ast.Dfunc fd -> prog.funcs <- prog.funcs @ [ lower_func env prog layout fd ]
      | Ast.Dstruct _ | Ast.Dtypedef _ | Ast.Dglobal _ | Ast.Dextern _ -> ())
    prog_ast;
  prog

let lower_source src =
  let ast = Slo_minic.Parser.parse src in
  let env = Typecheck.check ast in
  lower ast env
