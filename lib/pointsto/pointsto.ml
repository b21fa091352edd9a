module Item = struct
  (* provenance of a pointer value with respect to record types *)
  type t =
    | Field_ptr of string * int  (* address of one specific field *)
    | Obj_ptr of string          (* pointer to a whole object (array elt) *)
    | Raw_ptr of string          (* cast/arithmetic-derived view into it *)

  let compare = compare
end

module ItemSet = Set.Make (Item)

(* abstract cells holding pointer values; registers are not cells but
   slots of one array (see [analyze]) *)
type cell =
  | Clocal of string * string
  | Cglobal of string
  | Cmem_field of string * int  (* contents of a struct field *)
  | Cmem_any of string          (* contents reached through collapsed views *)
  | Cret of string              (* return value of a function *)

type event = {
  ev_fn : string;
  ev_iid : int;
  ev_loc : Ir.Loc.t;
  ev_what : string;
}

type t = {
  cells : (cell, ItemSet.t) Hashtbl.t;
  mutable collapsed_set : (string, unit) Hashtbl.t;
  mutable deref_items : ItemSet.t;  (* items appearing in address positions *)
  raw_origin : (string, event) Hashtbl.t;
      (* first site where a typed view of the struct degraded to raw *)
  raw_deref : (string, event) Hashtbl.t;
      (* first site where a raw view of the struct was dereferenced *)
  collapse_why : (string, event list) Hashtbl.t;
}

let get t c = Option.value ~default:ItemSet.empty (Hashtbl.find_opt t.cells c)

(* [Some (old ∪ items)] when that grows [old], marking the round changed *)
let grow old items changed =
  if ItemSet.subset items old then None
  else begin
    changed := true;
    Some (ItemSet.union old items)
  end

let add t c items changed =
  Option.iter (Hashtbl.replace t.cells c) (grow (get t c) items changed)

let add_reg regs r items changed =
  Option.iter (fun nu -> regs.(r) <- nu) (grow regs.(r) items changed)

(* the first collapse of a type fixes its provenance chain, built only
   then; later re-discoveries (the fixpoint revisits every instruction)
   are no-ops *)
let collapse t s why =
  if not (Hashtbl.mem t.collapsed_set s) then begin
    Hashtbl.replace t.collapse_why s (why ());
    Hashtbl.replace t.collapsed_set s ()
  end

(* arithmetic / scalar indexing turns any view into a raw view *)
let degrade items =
  ItemSet.map
    (fun it ->
      match it with
      | Item.Field_ptr (s, _) -> Item.Raw_ptr s
      | Item.Obj_ptr s -> Item.Raw_ptr s
      | Item.Raw_ptr s -> Item.Raw_ptr s)
    items

(* stepping a pointer by whole objects of [s] keeps object provenance *)
let degrade_struct_step s items =
  ItemSet.map
    (fun it ->
      match it with
      | Item.Obj_ptr s' when String.equal s' s -> Item.Obj_ptr s'
      | Item.Field_ptr (s', _) | Item.Obj_ptr s' | Item.Raw_ptr s' ->
        Item.Raw_ptr s')
    items

let analyze (prog : Ir.program) : t =
  let t =
    {
      cells = Hashtbl.create 128;
      collapsed_set = Hashtbl.create 8;
      deref_items = ItemSet.empty;
      raw_origin = Hashtbl.create 8;
      raw_deref = Hashtbl.create 8;
      collapse_why = Hashtbl.create 8;
    }
  in
  let event fn (i : Ir.instr) fmt =
    Printf.ksprintf
      (fun what -> { ev_fn = fn; ev_iid = i.iid; ev_loc = i.iloc; ev_what = what })
      fmt
  in
  let note_origin fn (i : Ir.instr) s how =
    if not (Hashtbl.mem t.raw_origin s) then
      Hashtbl.replace t.raw_origin s
        (event fn i "pointer into struct '%s' degraded to a raw view by %s" s
           how)
  in
  (* typed views that [degrade] would turn raw *)
  let note_degrade fn i how items =
    ItemSet.iter
      (fun it ->
        match it with
        | Item.Field_ptr (s, _) | Item.Obj_ptr s -> note_origin fn i s how
        | Item.Raw_ptr _ -> ())
      items
  in
  let changed = ref true in
  (* memory cells addressed by a pointer with the given provenance *)
  let mem_cells_of items =
    ItemSet.fold
      (fun it acc ->
        match it with
        | Item.Field_ptr (s, fi) -> Cmem_field (s, fi) :: acc
        | Item.Obj_ptr s | Item.Raw_ptr s -> Cmem_any s :: acc)
      items []
  in
  let note_deref fn (i : Ir.instr) items =
    t.deref_items <- ItemSet.union t.deref_items items;
    ItemSet.iter
      (fun it ->
        match it with
        | Item.Raw_ptr s ->
          if not (Hashtbl.mem t.raw_deref s) then
            Hashtbl.replace t.raw_deref s
              (event fn i "raw view of struct '%s' is dereferenced here" s)
        | Item.Field_ptr _ | Item.Obj_ptr _ -> ())
      items
  in
  (* address-of a struct-typed variable yields an object pointer *)
  let globals_ty = Hashtbl.create 16 in
  List.iter (fun (n, ty, _) -> Hashtbl.replace globals_ty n ty) prog.globals;
  let rec obj_item (ty : Irty.t) =
    match ty with
    | Irty.Struct s -> ItemSet.singleton (Item.Obj_ptr s)
    | Irty.Array (u, _) -> obj_item u
    | _ -> ItemSet.empty
  in
  let param_cells = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      List.iteri
        (fun i (pname, _) ->
          Hashtbl.replace param_cells (f.Ir.fname, i) (Clocal (f.fname, pname)))
        f.Ir.fparams)
    prog.funcs;
  (* per function, fixed across rounds: where its registers start in
     [regs], its locals' types, and the loads and stores whose address
     register was set by an address-of a local or global earlier in the
     same block *)
  let nregs = ref 0 in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        let locals_ty = Hashtbl.create 16 in
        List.iter (fun (n, ty) -> Hashtbl.replace locals_ty n ty) f.flocals;
        let direct =
          List.concat_map
            (fun (b : Ir.block) ->
              let addr_of = Hashtbl.create 8 in
              List.filter_map
                (fun (i : Ir.instr) ->
                  match i.idesc with
                  | Ir.Iaddrlocal (r, l) ->
                    Hashtbl.replace addr_of r (Clocal (f.fname, l));
                    None
                  | Ir.Iaddrglob (r, g) ->
                    Hashtbl.replace addr_of r (Cglobal g);
                    None
                  | Ir.Istore (Ir.Oreg ar, v, _, _) ->
                    Option.map (fun c -> `Store (c, v)) (Hashtbl.find_opt addr_of ar)
                  | Ir.Iload (r, Ir.Oreg ar, _, _) ->
                    Option.map (fun c -> `Load (r, c)) (Hashtbl.find_opt addr_of ar)
                  | _ -> None)
                b.instrs)
            f.fblocks
        in
        let roff = !nregs in
        nregs := roff + f.next_reg;
        (f, roff, locals_ty, direct))
      prog.funcs
  in
  (* every function's register cells, register [r] of a function at its
     [roff + r] ([r < next_reg], which Verify checks): one allocation,
     where an array per function would give the major heap one more size
     class (and its pool) for each length *)
  let regs = Array.make !nregs ItemSet.empty in
  while !changed do
    changed := false;
    List.iter
      (fun ((f : Ir.func), roff, locals_ty, direct) ->
        let fn = f.fname in
        let ops (o : Ir.operand) =
          match o with
          | Ir.Oreg r -> regs.(roff + r)
          | Ir.Oimm _ | Ir.Ofimm _ -> ItemSet.empty
        in
        let set r items = add_reg regs (roff + r) items changed in
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.idesc with
                | Ir.Imov (r, o) -> set r (ops o)
                | Ir.Ibin (r, _, _, a, b2) ->
                  (* pointer arithmetic through plain ops degrades *)
                  let src = ItemSet.union (ops a) (ops b2) in
                  note_degrade fn i "pointer arithmetic" src;
                  set r (degrade src)
                | Ir.Iun (r, _, _, a) ->
                  note_degrade fn i "pointer arithmetic" (ops a);
                  set r (degrade (ops a))
                | Ir.Icast (r, _, to_, v, _) -> (
                  let src = ops v in
                  match to_ with
                  | Irty.Ptr (Irty.Struct s) ->
                    set r (ItemSet.add (Item.Obj_ptr s) src)
                  | _ -> set r src)
                | Ir.Iload (r, a, _, _) ->
                  let addr = ops a in
                  note_deref fn i addr;
                  List.iter
                    (fun mc -> set r (get t mc))
                    (mem_cells_of addr)
                | Ir.Istore (a, v, _, _) ->
                  let addr = ops a in
                  note_deref fn i addr;
                  List.iter
                    (fun mc -> add t mc (ops v) changed)
                    (mem_cells_of addr)
                | Ir.Iaddrglob (r, g) -> (
                  match Hashtbl.find_opt globals_ty g with
                  | Some ty -> set r (obj_item ty)
                  | None -> ())
                | Ir.Iaddrlocal (r, l) -> (
                  match Hashtbl.find_opt locals_ty l with
                  | Some ty -> set r (obj_item ty)
                  | None -> ())
                | Ir.Iaddrstr _ | Ir.Iaddrfunc _ -> ()
                | Ir.Ifieldaddr (r, _, s, fi) ->
                  set r (ItemSet.singleton (Item.Field_ptr (s, fi)))
                | Ir.Iptradd (r, b2, _, elem) -> (
                  let base = ops b2 in
                  match elem with
                  | Irty.Struct s ->
                    ItemSet.iter
                      (fun it ->
                        match it with
                        | Item.Obj_ptr s' when String.equal s' s -> ()
                        | Item.Field_ptr (s', _) | Item.Obj_ptr s' ->
                          note_origin fn i s'
                            (Printf.sprintf "indexing in struct '%s' steps" s)
                        | Item.Raw_ptr _ -> ())
                      base;
                    set r (ItemSet.add (Item.Obj_ptr s) (degrade_struct_step s base))
                  | _ ->
                    note_degrade fn i "scalar indexing" base;
                    set r (degrade base))
                | Ir.Ialloc (r, _, _, elem) -> (
                  match elem with
                  | Irty.Struct s ->
                    set r (ItemSet.singleton (Item.Obj_ptr s))
                  | _ -> ())
                | Ir.Icall (dst, callee, args) -> (
                  match callee with
                  | Ir.Cdirect callee_name
                    when Ir.find_func prog callee_name <> None ->
                    List.iteri
                      (fun ai arg ->
                        match
                          Hashtbl.find_opt param_cells (callee_name, ai)
                        with
                        | Some pc -> add t pc (ops arg) changed
                        | None -> ())
                      args;
                    (match dst with
                    | Some r -> set r (get t (Cret callee_name))
                    | None -> ())
                  | Ir.Cdirect _ | Ir.Cbuiltin _ | Ir.Cextern _
                  | Ir.Cindirect _ ->
                    (* pointers escaping the analysed world collapse their
                       types *)
                    List.iter
                      (fun arg ->
                        ItemSet.iter
                          (fun it ->
                            match it with
                            | Item.Field_ptr (s, _) | Item.Obj_ptr s
                            | Item.Raw_ptr s ->
                              collapse t s (fun () ->
                                  [ event fn i
                                      "pointer into struct '%s' escapes to \
                                       call '%s'"
                                      s
                                      (Ir.string_of_callee callee) ]))
                          (ops arg))
                      args)
                | Ir.Ifree _ -> ()
                | Ir.Imemset (d, _, _, _) ->
                  ItemSet.iter
                    (fun it ->
                      match it with
                      | Item.Field_ptr (s, _) | Item.Obj_ptr s
                      | Item.Raw_ptr s ->
                        collapse t s (fun () ->
                            [ event fn i
                                "pointer into struct '%s' is bulk-written by \
                                 memset"
                                s ]))
                    (ops d)
                | Ir.Imemcpy (d, s2, _, _) ->
                  ItemSet.iter
                    (fun it ->
                      match it with
                      | Item.Field_ptr (s, _) | Item.Obj_ptr s
                      | Item.Raw_ptr s ->
                        collapse t s (fun () ->
                            [ event fn i
                                "pointer into struct '%s' is bulk-copied by \
                                 memcpy"
                                s ]))
                    (ItemSet.union (ops d) (ops s2)))
              b.instrs;
            match b.btermin with
            | Ir.Tret (Some o) -> add t (Cret fn) (ops o) changed
            | Ir.Tret None | Ir.Tjmp _ | Ir.Tbr _ -> ())
          f.fblocks;
        (* locals/globals written or read through an address-of *)
        List.iter
          (function
            | `Store (c, v) -> add t c (ops v) changed
            | `Load (r, c) -> set r (get t c))
          direct)
      funcs
  done;
  (* final collapse detection: a raw view that is actually dereferenced
     collapses the type's field sets; the chain explains where the raw
     view came from and where it was dereferenced *)
  ItemSet.iter
    (fun it ->
      match it with
      | Item.Raw_ptr s ->
        let chain =
          Option.to_list (Hashtbl.find_opt t.raw_origin s)
          @ Option.to_list (Hashtbl.find_opt t.raw_deref s)
        in
        collapse t s (fun () -> chain)
      | Item.Field_ptr _ | Item.Obj_ptr _ -> ())
    t.deref_items;
  t

let collapsed t s = Hashtbl.mem t.collapsed_set s

let why_collapsed t s =
  Option.value ~default:[] (Hashtbl.find_opt t.collapse_why s)

let exposed_fields t s =
  ItemSet.fold
    (fun it acc ->
      match it with
      | Item.Field_ptr (s', fi) when String.equal s' s -> fi :: acc
      | Item.Field_ptr _ | Item.Obj_ptr _ | Item.Raw_ptr _ -> acc)
    t.deref_items []
  |> List.sort_uniq compare

let refutable t s = not (collapsed t s)
