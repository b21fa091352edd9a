type event = {
  ev_fn : string;
  ev_iid : int;
  ev_loc : Ir.Loc.t;
  ev_what : string;
}

type t = {
  why : (string, event list) Hashtbl.t;
      (* the collapsed types, each with the chain its first collapse
         recorded *)
  exposed : (string, int list) Hashtbl.t;
      (* fields whose address some dereferenced pointer holds, sorted *)
}

(* Provenance of a pointer value with respect to record types. The items
   are interned to dense ids once per analysis: per struct, a pointer to
   a whole object ([Obj]), a cast/arithmetic-derived raw view ([Raw]),
   and one [Field] per field whose address is taken. Each item addresses
   one memory cell: its field's contents for a field pointer, and the
   contents reached through any view of the struct otherwise. *)
type kind = Field of int | Obj | Raw

type item = {
  kind : kind;
  st : int;    (* struct index *)
  cell : int;  (* slot of the memory cell the item addresses *)
}

type sinfo = { ix : int; obj : int; raw : int }

(* The program compiled once to operations over slots. A slot is one set
   of items: a register of some function, or a cell (a local, a global, a
   function's return value, a struct field's contents, the contents
   reached through collapsed views). Slot [-1] is an immediate operand,
   whose set is empty. *)
type op =
  | Copy of { dst : int; src : int }  (* dst ⊇ src *)
  | Add of { dst : int; item : int; src : int }  (* dst ⊇ {item} ∪ src *)
  | Degrade of { dst : int; a : int; b : int; how : string; i : Ir.instr }
      (* arithmetic turns any view of a ∪ b into a raw view *)
  | Step of { dst : int; base : int; s : sinfo; i : Ir.instr }
      (* stepping by whole objects of [s] keeps their object provenance
         and degrades every other view *)
  | Load of { dst : int; addr : int; i : Ir.instr }
  | Store of { addr : int; v : int; i : Ir.instr }
  | Call of { dst : int; ret : int; params : int array; args : int array }
      (* a defined callee: argument [k] flows to cell [params.(k)] ([-1]
         when the callee has no such parameter), its return cell to [dst] *)
  | Escape of { args : int array; how : escape; i : Ir.instr }
      (* the types of every view in [args] collapse *)

and escape = To_call of Ir.callee | Bulk of string

let w = Sys.int_size

(* index of the one set bit of [b] *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFF_FFFF = 0 then (n := 32; b := !b lsr 32);
  if !b land 0xFFFF = 0 then (n := !n + 16; b := !b lsr 16);
  if !b land 0xFF = 0 then (n := !n + 8; b := !b lsr 8);
  if !b land 0xF = 0 then (n := !n + 4; b := !b lsr 4);
  if !b land 0x3 = 0 then (n := !n + 2; b := !b lsr 2);
  if !b land 0x1 = 0 then incr n;
  !n

let analyze (prog : Ir.program) : t =
  (* every function's registers come first, register [r] of a function
     at slot [roff + r] ([r < next_reg], which Verify checks); cell [c]
     is at slot [nregs + c] *)
  let nregs = List.fold_left (fun n (f : Ir.func) -> n + f.next_reg) 0 prog.funcs in
  let ncells = ref 0 in
  let new_cell () =
    incr ncells;
    nregs + !ncells - 1
  in
  let items = ref [] and nitems = ref 0 in
  let new_item kind st cell =
    items := { kind; st; cell } :: !items;
    incr nitems;
    !nitems - 1
  in
  let structs = Hashtbl.create 16 and struct_names = ref [] in
  let struct_of s =
    match Hashtbl.find structs s with
    | si -> si
    | exception Not_found ->
      let ix = Hashtbl.length structs in
      let any = new_cell () in
      let si = { ix; obj = new_item Obj ix any; raw = new_item Raw ix any } in
      Hashtbl.replace structs s si;
      struct_names := s :: !struct_names;
      si
  in
  let fields = Hashtbl.create 64 in
  let field_item s fi =
    let si = struct_of s in
    match Hashtbl.find fields (si.ix, fi) with
    | it -> it
    | exception Not_found ->
      let it = new_item (Field fi) si.ix (new_cell ()) in
      Hashtbl.replace fields (si.ix, fi) it;
      it
  in
  (* address-of a struct-typed variable yields an object pointer *)
  let rec obj_item (ty : Irty.t) =
    match ty with
    | Irty.Struct s -> (struct_of s).obj
    | Irty.Array (u, _) -> obj_item u
    | _ -> -1
  in
  let named = Hashtbl.create 64 in
  let named_cell key =
    match Hashtbl.find named key with
    | c -> c
    | exception Not_found ->
      let c = new_cell () in
      Hashtbl.replace named key c;
      c
  in
  let local_cell fn l = named_cell (`Local (fn, l)) in
  let ret_cell fn = named_cell (`Ret fn) in
  let globals_ty = Hashtbl.create 16 in
  List.iter (fun (n, ty, _) -> Hashtbl.replace globals_ty n ty) prog.globals;
  let params = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace params f.fname
        (Array.of_list (List.map (fun (p, _) -> local_cell f.fname p) f.fparams)))
    prog.funcs;
  (* compile each function once: its blocks' instructions and returns in
     order, then the loads and stores whose address register was set by
     an address-of a local or global earlier in the same block *)
  let roff = ref 0 in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        let fn = f.fname and base = !roff in
        roff := base + f.next_reg;
        let slot (o : Ir.operand) =
          match o with Ir.Oreg r -> base + r | Ir.Oimm _ | Ir.Ofimm _ -> -1
        in
        let locals_ty = Hashtbl.create 16 in
        List.iter (fun (n, ty) -> Hashtbl.replace locals_ty n ty) f.flocals;
        let ops = ref [] and direct = ref [] in
        let emit op = ops := op :: !ops in
        let copy dst src = if src >= 0 then emit (Copy { dst; src }) in
        let add dst item = if item >= 0 then emit (Add { dst; item; src = -1 }) in
        let addr_of = Hashtbl.create 8 in
        List.iter
          (fun (b : Ir.block) ->
            Hashtbl.reset addr_of;
            List.iter
              (fun (i : Ir.instr) ->
                (match i.idesc with
                | Ir.Iaddrlocal (r, l) -> Hashtbl.replace addr_of r (local_cell fn l)
                | Ir.Iaddrglob (r, g) -> Hashtbl.replace addr_of r (named_cell (`Global g))
                | Ir.Istore (Ir.Oreg ar, v, _, _) when Hashtbl.mem addr_of ar ->
                  if slot v >= 0 then
                    direct := Copy { dst = Hashtbl.find addr_of ar; src = slot v } :: !direct
                | Ir.Iload (r, Ir.Oreg ar, _, _) when Hashtbl.mem addr_of ar ->
                  direct := Copy { dst = base + r; src = Hashtbl.find addr_of ar } :: !direct
                | _ -> ());
                match i.idesc with
                | Ir.Imov (r, o) -> copy (base + r) (slot o)
                | Ir.Ibin (r, _, _, a, b2) ->
                  emit (Degrade { dst = base + r; a = slot a; b = slot b2; how = "pointer arithmetic"; i })
                | Ir.Iun (r, _, _, a) ->
                  emit (Degrade { dst = base + r; a = slot a; b = -1; how = "pointer arithmetic"; i })
                | Ir.Icast (r, _, to_, v, _) -> (
                  match to_ with
                  | Irty.Ptr (Irty.Struct s) ->
                    emit (Add { dst = base + r; item = (struct_of s).obj; src = slot v })
                  | _ -> copy (base + r) (slot v))
                | Ir.Iload (r, a, _, _) -> emit (Load { dst = base + r; addr = slot a; i })
                | Ir.Istore (a, v, _, _) -> emit (Store { addr = slot a; v = slot v; i })
                | Ir.Iaddrglob (r, g) -> (
                  match Hashtbl.find_opt globals_ty g with
                  | Some ty -> add (base + r) (obj_item ty)
                  | None -> ())
                | Ir.Iaddrlocal (r, l) -> (
                  match Hashtbl.find_opt locals_ty l with
                  | Some ty -> add (base + r) (obj_item ty)
                  | None -> ())
                | Ir.Iaddrstr _ | Ir.Iaddrfunc _ | Ir.Ifree _ -> ()
                | Ir.Ifieldaddr (r, _, s, fi) -> add (base + r) (field_item s fi)
                | Ir.Iptradd (r, b2, _, elem) -> (
                  match elem with
                  | Irty.Struct s ->
                    emit (Step { dst = base + r; base = slot b2; s = struct_of s; i })
                  | _ ->
                    emit (Degrade { dst = base + r; a = slot b2; b = -1; how = "scalar indexing"; i }))
                | Ir.Ialloc (r, _, _, elem) -> (
                  match elem with
                  | Irty.Struct s -> add (base + r) (struct_of s).obj
                  | _ -> ())
                | Ir.Icall (dst, callee, args) -> (
                  let args = Array.of_list (List.map slot args) in
                  match callee with
                  | Ir.Cdirect n when Hashtbl.mem params n ->
                    let ps = Hashtbl.find params n in
                    emit
                      (Call
                         { dst = (match dst with Some r -> base + r | None -> -1);
                           ret = ret_cell n;
                           params =
                             Array.mapi (fun k _ -> if k < Array.length ps then ps.(k) else -1) args;
                           args })
                  | Ir.Cdirect _ | Ir.Cbuiltin _ | Ir.Cextern _ | Ir.Cindirect _ ->
                    (* pointers escaping the analysed world collapse their
                       types *)
                    emit (Escape { args; how = To_call callee; i }))
                | Ir.Imemset (d, _, _, _) ->
                  emit (Escape { args = [| slot d |]; how = Bulk "is bulk-written by memset"; i })
                | Ir.Imemcpy (d, s2, _, _) ->
                  emit
                    (Escape
                       { args = [| slot d; slot s2 |]; how = Bulk "is bulk-copied by memcpy"; i }))
              b.instrs;
            match b.btermin with
            | Ir.Tret (Some o) -> copy (ret_cell fn) (slot o)
            | Ir.Tret None | Ir.Tjmp _ | Ir.Tbr _ -> ())
          f.fblocks;
        (fn, Array.of_list (List.rev_append !ops (List.rev !direct))))
      prog.funcs
  in
  let items = Array.of_list (List.rev !items) in
  let struct_names = Array.of_list (List.rev !struct_names) in
  let ns = Array.length struct_names in
  let raw_of = Array.make ns 0 in
  Hashtbl.iter (fun _ si -> raw_of.(si.ix) <- si.raw) structs;
  (* the sets: [nw] words per slot of one flat array, and past the cells
     one more slot for the items seen in address positions; one
     allocation, where an array per slot would give the major heap one
     more size class (and its pool) for each length *)
  let nw = max 1 ((Array.length items + w - 1) / w) in
  let deref = nregs + !ncells in
  let sets = Array.make ((deref + 1) * nw) 0 in
  let changed = ref true in
  (* dst ⊇ src, marking the round changed when dst grows *)
  let grow dst src =
    if src >= 0 then
      for k = 0 to nw - 1 do
        let d = sets.((dst * nw) + k) in
        let u = d lor sets.((src * nw) + k) in
        if u <> d then begin
          sets.((dst * nw) + k) <- u;
          changed := true
        end
      done
  in
  let add_item dst it =
    let j = (dst * nw) + (it / w) and bit = 1 lsl (it mod w) in
    if sets.(j) land bit = 0 then begin
      sets.(j) <- sets.(j) lor bit;
      changed := true
    end
  in
  (* the items of a ∪ b into [buf], taken before any set grows; their
     count. An operation whose input sets are empty stops here. *)
  let buf = Array.make (Array.length items + 1) 0 in
  let gather a b =
    let n = ref 0 in
    for k = 0 to nw - 1 do
      let word = ref 0 in
      if a >= 0 then word := sets.((a * nw) + k);
      if b >= 0 then word := !word lor sets.((b * nw) + k);
      while !word <> 0 do
        let low = !word land - !word in
        buf.(!n) <- (k * w) + bit_index low;
        incr n;
        word := !word lxor low
      done
    done;
    !n
  in
  (* provenance chains: per struct, the first site where a typed view
     degraded to raw, the first where a raw view was dereferenced, and
     the chain its first collapse recorded. Event text is built only
     when an event is recorded. *)
  let raw_origin = Array.make ns None and raw_deref = Array.make ns None in
  let why = Array.make ns None in
  let event fn (i : Ir.instr) what =
    { ev_fn = fn; ev_iid = i.iid; ev_loc = i.iloc; ev_what = what }
  in
  let origin fn i st how =
    raw_origin.(st) <-
      Some
        (event fn i
           (Printf.sprintf "pointer into struct '%s' degraded to a raw view by %s"
              struct_names.(st) how))
  in
  (* the items at an address position; a raw view there is a raw
     dereference *)
  let note_deref fn i n =
    for j = 0 to n - 1 do
      add_item deref buf.(j);
      let it = items.(buf.(j)) in
      match it.kind with
      | Raw when raw_deref.(it.st) = None ->
        raw_deref.(it.st) <-
          Some
            (event fn i
               (Printf.sprintf "raw view of struct '%s' is dereferenced here"
                  struct_names.(it.st)))
      | Raw | Field _ | Obj -> ()
    done
  in
  let exec fn = function
    | Copy { dst; src } -> grow dst src
    | Add { dst; item; src } ->
      add_item dst item;
      grow dst src
    | Degrade { dst; a; b; how; i } ->
      for j = 0 to gather a b - 1 do
        let it = items.(buf.(j)) in
        (match it.kind with
        | (Field _ | Obj) when raw_origin.(it.st) = None -> origin fn i it.st how
        | Field _ | Obj | Raw -> ());
        add_item dst raw_of.(it.st)
      done
    | Step { dst; base; s; i } ->
      add_item dst s.obj;
      for j = 0 to gather base (-1) - 1 do
        let it = items.(buf.(j)) in
        match it.kind with
        | Obj when it.st = s.ix -> ()
        | Field _ | Obj ->
          if raw_origin.(it.st) = None then
            origin fn i it.st
              (Printf.sprintf "indexing in struct '%s' steps" struct_names.(s.ix));
          add_item dst raw_of.(it.st)
        | Raw -> add_item dst raw_of.(it.st)
      done
    | Load { dst; addr; i } ->
      let n = gather addr (-1) in
      note_deref fn i n;
      for j = 0 to n - 1 do
        grow dst items.(buf.(j)).cell
      done
    | Store { addr; v; i } ->
      let n = gather addr (-1) in
      note_deref fn i n;
      for j = 0 to n - 1 do
        grow items.(buf.(j)).cell v
      done
    | Call { dst; ret; params; args } ->
      for k = 0 to Array.length params - 1 do
        if params.(k) >= 0 then grow params.(k) args.(k)
      done;
      if dst >= 0 then grow dst ret
    | Escape { args; how; i } ->
      for k = 0 to Array.length args - 1 do
        for j = 0 to gather args.(k) (-1) - 1 do
          let st = items.(buf.(j)).st in
          if why.(st) = None then
            why.(st) <-
              Some
                [ event fn i
                    (Printf.sprintf "pointer into struct '%s' %s" struct_names.(st)
                       (match how with
                       | To_call callee ->
                         Printf.sprintf "escapes to call '%s'" (Ir.string_of_callee callee)
                       | Bulk what -> what)) ]
        done
      done
  in
  (* round-robin rounds in program order until no set grows: the order
     fixes which site each first event names *)
  while !changed do
    changed := false;
    List.iter (fun (fn, ops) -> Array.iter (exec fn) ops) funcs
  done;
  (* final collapse detection: a raw view that is actually dereferenced
     collapses the type's field sets; the chain explains where the raw
     view came from and where it was dereferenced *)
  let exposed = Hashtbl.create 16 in
  for j = gather deref (-1) - 1 downto 0 do
    let it = items.(buf.(j)) in
    let s = struct_names.(it.st) in
    match it.kind with
    | Raw ->
      if why.(it.st) = None then
        why.(it.st) <-
          Some (Option.to_list raw_origin.(it.st) @ Option.to_list raw_deref.(it.st))
    | Field fi ->
      Hashtbl.replace exposed s
        (fi :: Option.value ~default:[] (Hashtbl.find_opt exposed s))
    | Obj -> ()
  done;
  Hashtbl.filter_map_inplace (fun _ fis -> Some (List.sort_uniq compare fis)) exposed;
  let t = { why = Hashtbl.create 8; exposed } in
  Array.iteri
    (fun st chain -> Option.iter (Hashtbl.replace t.why struct_names.(st)) chain)
    why;
  t

let collapsed t s = Hashtbl.mem t.why s

let why_collapsed t s = Option.value ~default:[] (Hashtbl.find_opt t.why s)

let exposed_fields t s = Option.value ~default:[] (Hashtbl.find_opt t.exposed s)

let refutable t s = not (collapsed t s)
