let infer (prog : Ir.program) (f : Ir.func) : Irty.t option array =
  let tys = Array.make f.next_reg None in
  let globals = Hashtbl.create 16 in
  List.iter (fun (n, t, _) -> Hashtbl.replace globals n t) prog.globals;
  let locals = Hashtbl.create 16 in
  List.iter (fun (n, t) -> Hashtbl.replace locals n t) f.flocals;
  let operand_ty = function
    | Ir.Oreg r -> tys.(r)
    | Ir.Oimm _ -> Some Irty.Long
    | Ir.Ofimm _ -> Some Irty.Double
  in
  let field_ty s fi =
    match Structs.find_opt prog.structs s with
    | Some d when fi < Array.length d.fields -> Some d.fields.(fi).ty
    | Some _ | None -> None
  in
  let pass () =
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.idesc with
            | Ir.Imov (r, o) -> (
              (* a join whose arms mix floating and other values (a
                 [?:] with a double arm) is floating, whichever arm is
                 moved last *)
              match (tys.(r), operand_ty o) with
              | Some t, Some u
                when Irty.is_float_ty t && not (Irty.is_float_ty u) ->
                ()
              | _, Some u -> tys.(r) <- Some u
              | _, None -> ())
            | Ir.Ibin (r, op, ty, _, _) -> (
              match op with
              | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne ->
                tys.(r) <- Some Irty.Int
              | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Band
              | Ir.Bor | Ir.Bxor | Ir.Shl | Ir.Shr ->
                tys.(r) <- Some ty)
            | Ir.Iun (r, u, ty, _) ->
              tys.(r) <- Some (match u with Ir.Lnot -> Irty.Int | Ir.Neg | Ir.Bnot -> ty)
            | Ir.Icast (r, _, to_, _, _) -> tys.(r) <- Some to_
            | Ir.Iload (r, _, ty, _) -> tys.(r) <- Some ty
            | Ir.Iaddrglob (r, g) -> (
              match Hashtbl.find_opt globals g with
              | Some t -> tys.(r) <- Some (Irty.Ptr t)
              | None -> ())
            | Ir.Iaddrlocal (r, l) -> (
              match Hashtbl.find_opt locals l with
              | Some t -> tys.(r) <- Some (Irty.Ptr t)
              | None -> ())
            | Ir.Iaddrstr (r, _) -> tys.(r) <- Some (Irty.Ptr Irty.Char)
            | Ir.Iaddrfunc (r, _) -> tys.(r) <- Some Irty.Funptr
            | Ir.Ifieldaddr (r, _, s, fi) -> (
              match field_ty s fi with
              | Some t -> tys.(r) <- Some (Irty.Ptr t)
              | None -> ())
            | Ir.Iptradd (r, _, _, elem) -> tys.(r) <- Some (Irty.Ptr elem)
            | Ir.Icall (Some r, callee, _) -> (
              match callee with
              | Ir.Cdirect n -> (
                match Ir.find_func prog n with
                | Some g -> tys.(r) <- Some g.fret
                | None -> tys.(r) <- Some Irty.Long)
              | Ir.Cbuiltin n -> (
                match List.assoc_opt n Slo_minic.Typecheck.builtins with
                | Some t -> tys.(r) <- Some (Irty.of_ast t)
                | None -> tys.(r) <- Some Irty.Long)
              | Ir.Cextern _ | Ir.Cindirect _ ->
                tys.(r) <- Some Irty.Long)
            | Ir.Ialloc (r, _, _, elem) -> tys.(r) <- Some (Irty.Ptr elem)
            | Ir.Icall (None, _, _) | Ir.Istore _ | Ir.Ifree _ | Ir.Imemset _
            | Ir.Imemcpy _ ->
              ())
          b.instrs)
      f.fblocks
  in
  pass ();
  pass ();
  tys

let float_regs prog f =
  Array.map
    (function Some t -> Irty.is_float_ty t | None -> false)
    (infer prog f)

let struct_ptr = function
  | Some (Irty.Ptr (Irty.Struct s)) -> Some s
  | Some _ | None -> None
