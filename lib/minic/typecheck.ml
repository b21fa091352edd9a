exception Error of string * Loc.t

type env = {
  structs : (string, Ast.struct_decl) Hashtbl.t;
  globals : (string, Ast.ty) Hashtbl.t;
  funcs : (string, Ast.func_decl) Hashtbl.t;
  externs : (string, Ast.extern_decl) Hashtbl.t;
}

let builtins =
  let open Ast in
  [
    ("malloc", Tptr Tvoid); ("calloc", Tptr Tvoid); ("realloc", Tptr Tvoid);
    ("free", Tvoid); ("memset", Tvoid); ("memcpy", Tvoid);
    ("printf", Tint); ("putint", Tint); ("putfloat", Tvoid);
    ("sqrt", Tdouble); ("exp", Tdouble); ("log", Tdouble); ("fabs", Tdouble);
    ("pow", Tdouble); ("floor", Tdouble); ("rand", Tint); ("srand", Tvoid);
  ]

let is_builtin n = List.mem_assoc n builtins

let err loc fmt = Printf.ksprintf (fun s -> raise (Error (s, loc))) fmt

let lookup_struct env name =
  match Hashtbl.find_opt env.structs name with
  | Some sd -> sd
  | None -> err Loc.dummy "unknown struct '%s'" name

let field_index env sname fname =
  let sd = lookup_struct env sname in
  let rec go i = function
    | [] -> err Loc.dummy "struct '%s' has no field '%s'" sname fname
    | f :: rest -> if String.equal f.Ast.fname fname then i else go (i + 1) rest
  in
  go 0 sd.sfields

(* array-to-pointer decay for rvalue uses *)
let decay = function Ast.Tarray (t, _) -> Ast.Tptr t | t -> t

let usual_arith a b =
  match (a, b) with
  | Ast.Tdouble, _ | _, Ast.Tdouble -> Ast.Tdouble
  | Ast.Tfloat, _ | _, Ast.Tfloat -> Ast.Tfloat
  | Ast.Tlong, _ | _, Ast.Tlong -> Ast.Tlong
  | _ -> Ast.Tint

type scope = { vars : (string, Ast.ty) Hashtbl.t; parent : scope option }

let rec scope_find sc name =
  match Hashtbl.find_opt sc.vars name with
  | Some t -> Some t
  | None -> ( match sc.parent with Some p -> scope_find p name | None -> None)

let check (prog : Ast.program) : env =
  let env =
    {
      structs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      externs = Hashtbl.create 16;
    }
  in
  (* first pass: collect declarations *)
  List.iter
    (fun d ->
      match d with
      | Ast.Dstruct sd -> Hashtbl.replace env.structs sd.sname sd
      | Ast.Dtypedef _ -> ()
      | Ast.Dglobal g -> Hashtbl.replace env.globals g.gname g.gty
      | Ast.Dfunc f -> Hashtbl.replace env.funcs f.funname f
      | Ast.Dextern e ->
        if not (Hashtbl.mem env.funcs e.exname) then
          Hashtbl.replace env.externs e.exname e)
    prog;
  (* a prototype followed by a definition: drop the extern entry *)
  Hashtbl.iter (fun n _ -> Hashtbl.remove env.externs n) env.funcs;
  (* validate struct fields refer to known structs *)
  Hashtbl.iter
    (fun _ sd ->
      List.iter
        (fun f ->
          let rec base = function
            | Ast.Tstruct s ->
              if not (Hashtbl.mem env.structs s) then
                err f.Ast.floc "field '%s' has unknown struct type '%s'"
                  f.Ast.fname s
            | Ast.Tptr t | Ast.Tarray (t, _) -> base t
            | Ast.Tvoid | Ast.Tchar | Ast.Tshort | Ast.Tint | Ast.Tlong
            | Ast.Tfloat | Ast.Tdouble | Ast.Tnamed _ | Ast.Tfun _
            | Ast.Tauto ->
              ()
          in
          base f.Ast.fty)
        sd.Ast.sfields)
    env.structs;

  let rec check_expr sc (e : Ast.expr) : Ast.ty =
    let t = infer sc e in
    e.ety <- t;
    t
  and infer sc e : Ast.ty =
    match e.edesc with
    | Eint _ -> Tint
    | Efloat _ -> Tdouble
    | Estr _ -> Tptr Tchar
    | Evar name -> (
      match scope_find sc name with
      | Some t -> t
      | None -> (
        match Hashtbl.find_opt env.globals name with
        | Some t -> t
        | None -> (
          match Hashtbl.find_opt env.funcs name with
          | Some f ->
            Tfun (f.funret, List.map fst f.funparams)
          | None -> (
            match Hashtbl.find_opt env.externs name with
            | Some ex -> Tfun (ex.exret, ex.exparams)
            | None -> (
              match List.assoc_opt name builtins with
              | Some ret -> Tfun (ret, [])
              | None -> err e.eloc "unknown identifier '%s'" name)))))
    | Ebin (op, a, b) -> (
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      match op with
      | Add | Sub -> (
        match (ta, tb) with
        | Tptr t, ti when Ast.is_integer ti -> Tptr t
        | ti, Tptr t when Ast.is_integer ti && op = Add -> Tptr t
        | Tptr _, Tptr _ when op = Sub -> Tlong
        | _ when Ast.is_arith ta && Ast.is_arith tb -> usual_arith ta tb
        | _ ->
          err e.eloc "invalid operands to +/-: %s, %s" (Ast.string_of_ty ta)
            (Ast.string_of_ty tb))
      | Mul | Div ->
        if Ast.is_arith ta && Ast.is_arith tb then usual_arith ta tb
        else err e.eloc "invalid operands to */ : %s, %s"
               (Ast.string_of_ty ta) (Ast.string_of_ty tb)
      | Mod | Band | Bor | Bxor | Shl | Shr ->
        if Ast.is_integer ta && Ast.is_integer tb then usual_arith ta tb
        else err e.eloc "integer operands required"
      | Lt | Le | Gt | Ge | Eq | Ne ->
        if (Ast.is_arith ta && Ast.is_arith tb)
           || (Ast.is_pointer ta && Ast.is_pointer tb)
           || (Ast.is_pointer ta && Ast.is_integer tb)
           || (Ast.is_integer ta && Ast.is_pointer tb)
        then Tint
        else err e.eloc "invalid comparison: %s vs %s" (Ast.string_of_ty ta)
               (Ast.string_of_ty tb)
      | And | Or -> Tint)
    | Eun (op, a) -> (
      let ta = decay (check_expr sc a) in
      match op with
      | Neg ->
        if Ast.is_arith ta then ta else err e.eloc "cannot negate %s" (Ast.string_of_ty ta)
      | Lnot -> Tint
      | Bnot ->
        if Ast.is_integer ta then ta else err e.eloc "~ requires integer")
    | Eincr (_, a) ->
      let ta = check_expr sc a in
      check_lvalue a;
      if Ast.is_arith ta || Ast.is_pointer ta then ta
      else err e.eloc "cannot increment %s" (Ast.string_of_ty ta)
    | Eassign (lhs, rhs) ->
      let tl = check_expr sc lhs in
      check_lvalue lhs;
      let _tr = check_expr sc rhs in
      tl
    | Ecall (callee, args) -> (
      List.iter (fun a -> ignore (check_expr sc a)) args;
      match callee.edesc with
      | Evar name when is_builtin name && not (Hashtbl.mem env.funcs name) ->
        let ret = List.assoc name builtins in
        callee.ety <- Tfun (ret, []);
        ret
      | Evar name -> (
        match Hashtbl.find_opt env.funcs name with
        | Some f ->
          callee.ety <- Tfun (f.funret, List.map fst f.funparams);
          f.funret
        | None -> (
          match Hashtbl.find_opt env.externs name with
          | Some ex ->
            callee.ety <- Tfun (ex.exret, ex.exparams);
            ex.exret
          | None -> (
            (* indirect call through a variable holding a function pointer *)
            match scope_find sc name with
            | Some (Tptr (Tfun (r, ps)) | Tfun (r, ps)) ->
              callee.ety <- Tfun (r, ps);
              r
            | Some t -> err e.eloc "call of non-function '%s' : %s" name (Ast.string_of_ty t)
            | None -> (
              match Hashtbl.find_opt env.globals name with
              | Some (Tptr (Tfun (r, ps)) | Tfun (r, ps)) ->
                callee.ety <- Tfun (r, ps);
                r
              | Some t ->
                err e.eloc "call of non-function '%s' : %s" name
                  (Ast.string_of_ty t)
              | None -> err e.eloc "unknown function '%s'" name))))
      | _ -> (
        let tc = decay (check_expr sc callee) in
        match tc with
        | Tptr (Tfun (r, _)) | Tfun (r, _) -> r
        | t -> err e.eloc "call of non-function expression : %s" (Ast.string_of_ty t)))
    | Efield (b, f) -> (
      let tb = check_expr sc b in
      match tb with
      | Tstruct s ->
        let sd = find_struct e.eloc s in
        field_ty e.eloc sd f
      | t -> err e.eloc "'.%s' applied to non-struct %s" f (Ast.string_of_ty t))
    | Earrow (b, f) -> (
      let tb = decay (check_expr sc b) in
      match tb with
      | Tptr (Tstruct s) ->
        let sd = find_struct e.eloc s in
        field_ty e.eloc sd f
      | t -> err e.eloc "'->%s' applied to %s" f (Ast.string_of_ty t))
    | Eindex (b, i) -> (
      let tb = decay (check_expr sc b) in
      let ti = decay (check_expr sc i) in
      if not (Ast.is_integer ti) then err e.eloc "array index must be integer";
      match tb with
      | Tptr t -> t
      | t -> err e.eloc "subscript of non-pointer %s" (Ast.string_of_ty t))
    | Ederef b -> (
      let tb = decay (check_expr sc b) in
      match tb with
      | Tptr t -> t
      | t -> err e.eloc "dereference of non-pointer %s" (Ast.string_of_ty t))
    | Eaddr b -> (
      let tb = check_expr sc b in
      (match b.edesc with
      | Evar n when Hashtbl.mem env.funcs n || Hashtbl.mem env.externs n -> ()
      | _ -> check_lvalue b);
      match tb with
      | Tfun _ as f -> Tptr f
      | t -> Tptr t)
    | Ecast (t, b) ->
      ignore (check_expr sc b);
      resolve e.eloc t
    | Esizeof t ->
      ignore (resolve e.eloc t);
      Tlong
    | Econd (c, a, b) ->
      ignore (check_expr sc c);
      let ta = decay (check_expr sc a) in
      let tb = decay (check_expr sc b) in
      (* a pointer against an integer (a null constant) is the pointer,
         in either arm *)
      if Ast.is_arith ta && Ast.is_arith tb then usual_arith ta tb
      else if Ast.is_integer ta && Ast.is_pointer tb then tb
      else ta
  and check_lvalue (e : Ast.expr) =
    match e.edesc with
    | Evar _ | Ederef _ | Eindex _ | Efield _ | Earrow _ -> ()
    | Eint _ | Efloat _ | Estr _ | Ebin _ | Eun _ | Eincr _ | Eassign _
    | Ecall _ | Eaddr _ | Ecast _ | Esizeof _ | Econd _ ->
      err e.eloc "expression is not an lvalue"
  and find_struct loc s =
    match Hashtbl.find_opt env.structs s with
    | Some sd -> sd
    | None -> err loc "unknown struct '%s'" s
  and field_ty loc sd f =
    match List.find_opt (fun fd -> String.equal fd.Ast.fname f) sd.Ast.sfields with
    | Some fd -> fd.fty
    | None -> err loc "struct '%s' has no field '%s'" sd.sname f
  and resolve loc t =
    match t with
    | Ast.Tstruct s ->
      ignore (find_struct loc s);
      t
    | Ast.Tptr u -> Ast.Tptr (resolve loc u)
    | Ast.Tarray (u, n) -> Ast.Tarray (resolve loc u, n)
    | Ast.Tnamed n -> err loc "unresolved typedef '%s'" n
    | Ast.Tvoid | Ast.Tchar | Ast.Tshort | Ast.Tint | Ast.Tlong | Ast.Tfloat
    | Ast.Tdouble | Ast.Tfun _ | Ast.Tauto ->
      t
  in

  let rec check_stmts sc ret_ty (stmts : Ast.stmt list) =
    match stmts with
    | [] -> ()
    | s :: rest ->
      (match s.sdesc with
      | Sexpr e -> ignore (check_expr sc e)
      | Sdecl (t, name, init) ->
        let t = resolve_decl s.sloc t in
        Hashtbl.replace sc.vars name t;
        Option.iter (fun e -> ignore (check_expr sc e)) init
      | Sif (c, a, b) ->
        ignore (check_expr sc c);
        check_stmts (child sc) ret_ty a;
        check_stmts (child sc) ret_ty b
      | Swhile (c, body) ->
        ignore (check_expr sc c);
        check_stmts (child sc) ret_ty body
      | Sdo (body, c) ->
        check_stmts (child sc) ret_ty body;
        ignore (check_expr sc c)
      | Sfor (init, cond, step, body) ->
        let sc' = child sc in
        Option.iter (fun s0 -> check_stmts sc' ret_ty [ s0 ]) init;
        Option.iter (fun e -> ignore (check_expr sc' e)) cond;
        Option.iter (fun e -> ignore (check_expr sc' e)) step;
        check_stmts (child sc') ret_ty body
      | Sreturn e -> Option.iter (fun e -> ignore (check_expr sc e)) e
      | Sbreak | Scontinue -> ()
      | Sblock body -> check_stmts (child sc) ret_ty body);
      check_stmts sc ret_ty rest
  and child sc = { vars = Hashtbl.create 8; parent = Some sc }
  and resolve_decl loc t =
    match t with
    | Ast.Tstruct s ->
      if not (Hashtbl.mem env.structs s) then err loc "unknown struct '%s'" s;
      t
    | Ast.Tptr u -> Ast.Tptr (resolve_decl loc u)
    | Ast.Tarray (u, n) -> Ast.Tarray (resolve_decl loc u, n)
    | Ast.Tnamed n -> err loc "unresolved typedef '%s'" n
    | Ast.Tvoid | Ast.Tchar | Ast.Tshort | Ast.Tint | Ast.Tlong | Ast.Tfloat
    | Ast.Tdouble | Ast.Tfun _ | Ast.Tauto ->
      t
  in

  (* check globals' initialisers, then function bodies *)
  List.iter
    (fun d ->
      match d with
      | Ast.Dglobal g ->
        let root = { vars = Hashtbl.create 1; parent = None } in
        Option.iter (fun e -> ignore (check_expr root e)) g.ginit
      | Ast.Dfunc f ->
        let root = { vars = Hashtbl.create 8; parent = None } in
        List.iter (fun (t, n) -> Hashtbl.replace root.vars n t) f.funparams;
        check_stmts root f.funret f.funbody
      | Ast.Dstruct _ | Ast.Dtypedef _ | Ast.Dextern _ -> ())
    prog;
  env
