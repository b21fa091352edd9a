(** Static IR well-formedness checking.

    The BE transformations ({!Transform.apply}: split, peel, rebuild, pad
    and pool, each compiled to a layout map) mutate the IR in place: they
    retarget field accesses, rewrite allocation sites and remove the
    original struct from the table. A single mis-rewritten access chain silently corrupts the
    program, and is only caught if a fuzz seed happens to execute it. This
    pass machine-checks the invariants every consumer of the IR (the VM,
    the analyses, the transformations themselves) relies on:

    - every struct named by a type, a [fieldaddr], an access tag or a
      memset/memcpy tag exists in the struct table, and every field index
      is in range — in particular there are no dangling references to a
      struct removed by split/peel;
    - field names are unique within a struct and bit-fields sit on
      integer types;
    - the CFG is consistent: block ids are unique and in range, every
      terminator targets an existing block, functions are non-empty;
    - every register mentioned anywhere is in range and defined by some
      instruction of the function (the IR is not SSA, but a use of a
      register that {e no} instruction defines means a rewrite dropped a
      definition and kept a user);
    - a definition that names a type agrees with its register's recorded
      type ({!Ir.reg_ty}), so a rewrite that retypes an instruction but
      not its register is caught here, not as a wrong register bank at
      run time;
    - names resolve: globals, locals, address-taken and directly called
      functions; direct calls pass the declared number of arguments;
      every parameter has a stack slot in [flocals];
    - instruction ids are unique program-wide (the profile matcher keys
      on them).

    Errors carry enough context to be actionable: the function, block and
    printed instruction they were found in. *)

type site = {
  in_func : string option;
  in_block : int option;
  in_instr : string option;  (** the offending instruction, printed *)
}

type kind =
  | Unknown_struct of string
      (** a type, field access or tag names a struct not in the table *)
  | Field_out_of_range of string * int  (** struct, field index *)
  | Duplicate_field of string * string  (** struct, field name *)
  | Bad_bitfield of string * string  (** struct, non-integer bit-field *)
  | Unknown_global of string
  | Duplicate_global of string
  | Unknown_local of string
  | Unknown_function of string
  | Duplicate_function of string
  | Empty_function
  | Duplicate_block of int
  | Block_out_of_range of int  (** bid outside [0, next_block) *)
  | Bad_branch_target of int  (** terminator targets a missing block *)
  | Reg_out_of_range of int  (** register outside [0, next_reg) *)
  | Undefined_register of int  (** used but defined by no instruction *)
  | Reg_type_mismatch of int * Irty.t * Irty.t
      (** register, its recorded type, the type its definition gives it *)
  | Arity_mismatch of string * int * int  (** callee, declared, passed *)
  | Param_without_slot of string  (** parameter missing from [flocals] *)
  | Duplicate_iid of int  (** instruction id used twice program-wide *)
  | Missing_loc  (** instruction carries no source location (opt-in check) *)

type error = { site : site; kind : kind }

let string_of_kind = function
  | Unknown_struct s -> Printf.sprintf "reference to unknown struct '%s'" s
  | Field_out_of_range (s, i) ->
    Printf.sprintf "field index #%d out of range for struct '%s'" i s
  | Duplicate_field (s, f) ->
    Printf.sprintf "duplicate field '%s' in struct '%s'" f s
  | Bad_bitfield (s, f) ->
    Printf.sprintf "bit-field '%s.%s' on a non-integer type" s f
  | Unknown_global g -> Printf.sprintf "reference to unknown global '%s'" g
  | Duplicate_global g -> Printf.sprintf "duplicate global '%s'" g
  | Unknown_local l -> Printf.sprintf "reference to unknown local '%s'" l
  | Unknown_function f -> Printf.sprintf "reference to unknown function '%s'" f
  | Duplicate_function f -> Printf.sprintf "duplicate function '%s'" f
  | Empty_function -> "function has no blocks"
  | Duplicate_block b -> Printf.sprintf "duplicate block id B%d" b
  | Block_out_of_range b ->
    Printf.sprintf "block id B%d outside [0, next_block)" b
  | Bad_branch_target b -> Printf.sprintf "branch to missing block B%d" b
  | Reg_out_of_range r ->
    Printf.sprintf "register %%r%d outside [0, next_reg)" r
  | Undefined_register r ->
    Printf.sprintf "register %%r%d is used but never defined" r
  | Reg_type_mismatch (r, recorded, defined) ->
    Printf.sprintf "register %%r%d is typed %s but defined as %s" r
      (Irty.to_string recorded) (Irty.to_string defined)
  | Arity_mismatch (f, want, got) ->
    Printf.sprintf "call to '%s' passes %d arguments, declared with %d" f got
      want
  | Param_without_slot p ->
    Printf.sprintf "parameter '%s' has no slot in flocals" p
  | Duplicate_iid i -> Printf.sprintf "instruction id %d used twice" i
  | Missing_loc -> "instruction carries no source location"

let string_of_error e =
  let where =
    match e.site with
    | { in_func = None; _ } -> "program"
    | { in_func = Some f; in_block = None; _ } -> f
    | { in_func = Some f; in_block = Some b; in_instr = None } ->
      Printf.sprintf "%s.B%d" f b
    | { in_func = Some f; in_block = Some b; in_instr = Some i } ->
      Printf.sprintf "%s.B%d: %s" f b i
  in
  Printf.sprintf "%s: %s" where (string_of_kind e.kind)

let report errors =
  String.concat "\n" (List.map string_of_error errors)

exception Ill_formed of error list

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

(* Sites are passed as thunks and built only when an error is recorded:
   an instruction's site prints the instruction, which would otherwise
   cost a string per instruction of every well-formed program. *)
let program ?(require_locs = false) (p : Ir.program) : error list =
  let errors = ref [] in
  let fail site kind = errors := { site = site (); kind } :: !errors in
  let prog_site () = { in_func = None; in_block = None; in_instr = None } in

  (* struct table: field-name uniqueness, bit-field sanity, and the
     struct names mentioned by field types *)
  let struct_ok s = Structs.mem p.structs s in
  let rec check_ty site (t : Irty.t) =
    match t with
    | Irty.Struct s -> if not (struct_ok s) then fail site (Unknown_struct s)
    | Irty.Ptr u | Irty.Array (u, _) -> check_ty site u
    | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long | Irty.Float
    | Irty.Double | Irty.Funptr ->
      ()
  in
  Structs.iter
    (fun d ->
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun (f : Structs.field) ->
          if Hashtbl.mem seen f.name then
            fail prog_site (Duplicate_field (d.sname, f.name))
          else Hashtbl.replace seen f.name ();
          if f.bits <> None && not (Irty.is_integer_ty f.ty) then
            fail prog_site (Bad_bitfield (d.sname, f.name));
          check_ty prog_site f.ty)
        d.fields)
    p.structs;

  (* globals *)
  let global_names = Hashtbl.create 16 in
  List.iter
    (fun (n, t, _) ->
      if Hashtbl.mem global_names n then fail prog_site (Duplicate_global n)
      else Hashtbl.replace global_names n ();
      check_ty prog_site t)
    p.globals;

  (* function table *)
  let func_names = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      if Hashtbl.mem func_names f.fname then
        fail prog_site (Duplicate_function f.fname)
      else Hashtbl.replace func_names f.fname f)
    p.funcs;

  let check_access site (acc : Ir.access option) =
    match acc with
    | None -> ()
    | Some a -> (
      match Structs.find_opt p.structs a.astruct with
      | None -> fail site (Unknown_struct a.astruct)
      | Some d ->
        if a.afield < 0 || a.afield >= Array.length d.fields then
          fail site (Field_out_of_range (a.astruct, a.afield)))
  in
  let check_struct_tag site = function
    | Some s when not (struct_ok s) -> fail site (Unknown_struct s)
    | Some _ | None -> ()
  in

  (* the type a definition gives its register, where the instruction
     names one *)
  let defined_ty (i : Ir.instr) =
    match i.idesc with
    | Ir.Ibin (r, op, ty, _, _) -> Some (r, Ir.binop_ty op ty)
    | Ir.Iun (r, u, ty, _) ->
      Some (r, match u with Ir.Lnot -> Irty.Int | Ir.Neg | Ir.Bnot -> ty)
    | Ir.Icast (r, _, ty, _, _) | Ir.Iload (r, _, ty, _) -> Some (r, ty)
    | Ir.Iptradd (r, _, _, elem) | Ir.Ialloc (r, _, _, elem) ->
      Some (r, Irty.Ptr elem)
    | Ir.Icall (Some r, Ir.Cdirect n, _) ->
      Option.map
        (fun (g : Ir.func) -> (r, g.fret))
        (Hashtbl.find_opt func_names n)
    | Ir.Imov _ | Ir.Istore _ | Ir.Iaddrglob _ | Ir.Iaddrlocal _
    | Ir.Iaddrstr _ | Ir.Iaddrfunc _ | Ir.Ifieldaddr _ | Ir.Icall _
    | Ir.Ifree _ | Ir.Imemset _ | Ir.Imemcpy _ ->
      None
  in

  let seen_iids = Hashtbl.create 256 in

  List.iter
    (fun (f : Ir.func) ->
      let fsite () = { in_func = Some f.fname; in_block = None; in_instr = None } in
      check_ty fsite f.fret;
      List.iter (fun (_, t) -> check_ty fsite t) f.fparams;
      List.iter (fun (_, t) -> check_ty fsite t) f.flocals;
      let local_names = Hashtbl.create 16 in
      List.iter (fun (n, _) -> Hashtbl.replace local_names n ()) f.flocals;
      List.iter
        (fun (n, _) ->
          if not (Hashtbl.mem local_names n) then
            fail fsite (Param_without_slot n))
        f.fparams;
      if f.fblocks = [] then fail fsite Empty_function;

      (* CFG shape *)
      let block_ids = Hashtbl.create 16 in
      List.iter
        (fun (b : Ir.block) ->
          if Hashtbl.mem block_ids b.bid then
            fail fsite (Duplicate_block b.bid)
          else Hashtbl.replace block_ids b.bid ();
          if b.bid < 0 || b.bid >= f.next_block then
            fail fsite (Block_out_of_range b.bid))
        f.fblocks;
      List.iter
        (fun (b : Ir.block) ->
          let bsite () =
            { in_func = Some f.fname; in_block = Some b.bid; in_instr = None }
          in
          List.iter
            (fun t ->
              if not (Hashtbl.mem block_ids t) then
                fail bsite (Bad_branch_target t))
            (Ir.block_succs b))
        f.fblocks;

      (* registers: range, and every used register has some definition *)
      let in_range r = r >= 0 && r < f.next_reg in
      let defined = Array.make (max f.next_reg 1) false in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match Ir.defined_reg i with
              | Some r when in_range r -> defined.(r) <- true
              | Some _ | None -> ())
            b.instrs)
        f.fblocks;
      List.iter
        (fun (b : Ir.block) ->
          let site_of i () =
            { in_func = Some f.fname; in_block = Some b.bid;
              in_instr = Some (Ir.string_of_instr i) }
          in
          let check_reg site r =
            if not (in_range r) then fail site (Reg_out_of_range r)
            else if not defined.(r) then fail site (Undefined_register r)
          in
          List.iter
            (fun (i : Ir.instr) ->
              let site = site_of i in
              (* instruction ids are the profile-feedback matching key *)
              if Hashtbl.mem seen_iids i.iid then
                fail site (Duplicate_iid i.iid)
              else Hashtbl.replace seen_iids i.iid ();
              (* diagnostics need every instruction to name its source
                 point; opt-in because synthetic test IR uses Loc.dummy *)
              if require_locs && i.iloc.Ir.Loc.line <= 0 then
                fail site Missing_loc;
              (match Ir.defined_reg i with
              | Some r when not (in_range r) -> fail site (Reg_out_of_range r)
              | Some _ | None -> ());
              (match defined_ty i with
              | Some (r, ty) when in_range r ->
                let recorded = Ir.reg_ty f r in
                if not (Irty.equal ty recorded) then
                  fail site (Reg_type_mismatch (r, recorded, ty))
              | Some _ | None -> ());
              Ir.iter_used_operands
                (function
                  | Ir.Oreg r -> check_reg site r
                  | Ir.Oimm _ | Ir.Ofimm _ -> ())
                i;
              match i.idesc with
              | Ir.Ifieldaddr (_, _, s, fi) -> (
                match Structs.find_opt p.structs s with
                | None -> fail site (Unknown_struct s)
                | Some d ->
                  if fi < 0 || fi >= Array.length d.fields then
                    fail site (Field_out_of_range (s, fi)))
              | Ir.Iload (_, _, ty, acc) | Ir.Istore (_, _, ty, acc) ->
                check_ty site ty;
                check_access site acc
              | Ir.Icast (_, from_, to_, _, _) ->
                check_ty site from_;
                check_ty site to_
              | Ir.Ibin (_, _, ty, _, _) | Ir.Iun (_, _, ty, _)
              | Ir.Iptradd (_, _, _, ty) | Ir.Ialloc (_, _, _, ty) ->
                check_ty site ty
              | Ir.Iaddrglob (_, g) ->
                if not (Hashtbl.mem global_names g) then
                  fail site (Unknown_global g)
              | Ir.Iaddrlocal (_, l) ->
                if not (Hashtbl.mem local_names l) then
                  fail site (Unknown_local l)
              | Ir.Iaddrfunc (_, fn) ->
                if not (Hashtbl.mem func_names fn) then
                  fail site (Unknown_function fn)
              | Ir.Icall (_, Ir.Cdirect n, args) -> (
                match Hashtbl.find_opt func_names n with
                | None -> fail site (Unknown_function n)
                | Some (g : Ir.func) ->
                  let want = List.length g.fparams in
                  let got = List.length args in
                  if want <> got then
                    fail site (Arity_mismatch (n, want, got)))
              | Ir.Imemset (_, _, _, tag) | Ir.Imemcpy (_, _, _, tag) ->
                check_struct_tag site tag
              | Ir.Imov _ | Ir.Iaddrstr _ | Ir.Ifree _
              | Ir.Icall (_, (Ir.Cbuiltin _ | Ir.Cextern _ | Ir.Cindirect _), _)
                ->
                ())
            b.instrs;
          (* terminator operands *)
          let tsite () =
            { in_func = Some f.fname; in_block = Some b.bid;
              in_instr = Some (Ir.string_of_term b.btermin) }
          in
          match b.btermin with
          | Ir.Tbr (Ir.Oreg r, _, _) | Ir.Tret (Some (Ir.Oreg r)) ->
            if not (in_range r) then fail tsite (Reg_out_of_range r)
            else if not defined.(r) then fail tsite (Undefined_register r)
          | Ir.Tbr _ | Ir.Tret _ | Ir.Tjmp _ -> ())
        f.fblocks)
    p.funcs;
  List.rev !errors

let ok ?require_locs p = program ?require_locs p = []

let check ?require_locs p =
  match program ?require_locs p with
  | [] -> ()
  | errors -> raise (Ill_formed errors)
