(* Shared pre-compilation for the VM backends.

   Everything both engines must agree on bit-for-bit and the IR does not
   already define lives here: the frame layout of locals, the bit-field
   classification of tagged accesses, and the memory image (global
   allocation order and string interning). Keeping these in one place is
   what makes the walk and compiled engines produce identical addresses
   — and therefore identical cache-simulation counters. The register
   banks ({!Regty.float_regs}) and the entry block ({!Ir.entry_block})
   come from the IR. *)

(* frame layout: offsets for every local (params included), and the
   16-byte-rounded frame size *)
let locals_layout layout (f : Ir.func) :
    (string, int * Irty.t) Hashtbl.t * int =
  let locals = Hashtbl.create 16 in
  let off = ref 0 in
  List.iter
    (fun (name, ty) ->
      let a = Layout.alignof layout ty in
      let a = max a 1 in
      off := (!off + a - 1) / a * a;
      Hashtbl.replace locals name (!off, ty);
      off := !off + max (Layout.sizeof layout ty) 1)
    f.flocals;
  (locals, (!off + 15) / 16 * 16)

(* classify a tagged access: [Some (unit_size, bit_off, width)] when the
   tag names a genuine bit-field (so the VM must mask), [None] when the
   tag is only analysis metadata and the access is a plain load/store *)
let bitfield_info (prog : Ir.program) layout (a : Ir.access) =
  match Structs.find_opt prog.structs a.astruct with
  | Some d
    when a.afield < Array.length d.fields
         && d.fields.(a.afield).Structs.bits <> None -> (
    let flx = Layout.field_layout layout a.astruct a.afield in
    match flx.bit_width with
    | Some w -> Some (Layout.sizeof layout flx.fty, flx.bit_off, w)
    | None -> None)
  | Some _ | None -> None

(* lay out the globals region; the allocation order (declaration order,
   then interned strings) fixes every static address *)
let alloc_globals layout mem (prog : Ir.program) :
    (string, int * Irty.t) Hashtbl.t =
  let globals_addr = Hashtbl.create 16 in
  List.iter
    (fun (name, ty, init) ->
      let size = max (Layout.sizeof layout ty) 1 in
      let align = max (Layout.alignof layout ty) 1 in
      let addr = Memory.alloc_global mem ~size ~align in
      Hashtbl.replace globals_addr name (addr, ty);
      match init with
      | None -> ()
      | Some bits -> (
        match ty with
        | Irty.Float -> Memory.store_f32 mem ~addr (Int64.float_of_bits bits)
        | Irty.Double -> Memory.store_f64 mem ~addr (Int64.float_of_bits bits)
        | _ ->
          Memory.store_int mem ~addr ~size:(min 8 size) (Int64.to_int bits)))
    prog.globals;
  globals_addr

let intern_strings mem (prog : Ir.program) : (string, int) Hashtbl.t =
  let strings = Hashtbl.create 16 in
  let intern s =
    if not (Hashtbl.mem strings s) then begin
      let addr = Memory.alloc_global mem ~size:(String.length s + 1) ~align:1 in
      Memory.write_string mem addr s;
      Hashtbl.replace strings s addr
    end
  in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with Ir.Iaddrstr (_, s) -> intern s | _ -> ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  strings
