exception Runtime_error = Rt.Runtime_error

open Rt

let error = Rt.error

type result = Rt.result = { exit_code : int; output : string; steps : int }

(* pre-compiled function *)
type code = {
  cfunc : Ir.func;
  cblocks : Ir.instr array array;  (* indexed by block id *)
  cterms : Ir.term array;
  centry : int;
  clocals : (string, int * Irty.t) Hashtbl.t;  (* frame offset, type *)
  cframe_size : int;
  cfloat_reg : bool array;  (* register bank assignment *)
  cedges : Edges.row option;  (* this function's edge counters, if profiling *)
}

type t = {
  prog : Ir.program;
  layout : Layout.t;
  mem : Memory.t;
  codes : (string, code) Hashtbl.t;
  func_by_index : string array;
  func_addr : (string, int) Hashtbl.t;
  globals_addr : (string, int * Irty.t) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  benv : Builtins.env;
  out : Buffer.t;
  mutable sp : int;
  mutable steps : int;
  ring : Ring.t option;
  max_steps : int;
}

let func_addr_base = Rt.func_addr_base

(* ------------------------------------------------------------------ *)
(* Pre-compilation                                                     *)
(* ------------------------------------------------------------------ *)

let compile_func (prog : Ir.program) layout edges (f : Ir.func) : code =
  let nb = f.next_block in
  let cblocks = Array.make nb [||] in
  let cterms = Array.make nb (Ir.Tret None) in
  (* the VM only needs access tags for bit-field masking; strip the rest in
     its private instruction copies so the hot load/store path skips the
     per-access layout lookup (the shared IR keeps its tags for the
     analyses) *)
  let is_bitfield (a : Ir.access) =
    Prep.bitfield_info prog layout a <> None
  in
  let specialize (i : Ir.instr) =
    match i.idesc with
    | Ir.Iload (r, a, ty, Some acc) when not (is_bitfield acc) ->
      { i with Ir.idesc = Ir.Iload (r, a, ty, None) }
    | Ir.Istore (a, v, ty, Some acc) when not (is_bitfield acc) ->
      { i with Ir.idesc = Ir.Istore (a, v, ty, None) }
    | _ -> i
  in
  List.iter
    (fun (b : Ir.block) ->
      cblocks.(b.bid) <- Array.of_list (List.map specialize b.instrs);
      cterms.(b.bid) <- b.btermin)
    f.fblocks;
  let clocals, cframe_size = Prep.locals_layout layout f in
  {
    cfunc = f; cblocks; cterms;
    centry = Ir.entry_block f;
    clocals; cframe_size; cfloat_reg = Regty.float_regs prog f;
    cedges = Option.bind edges (fun e -> Edges.row e f.fname);
  }

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let create ?ring ?edges ?(max_steps = Rt.default_max_steps)
    (prog : Ir.program) : t =
  let layout = Layout.create prog.structs in
  let mem = Memory.create () in
  let globals_addr = Prep.alloc_globals layout mem prog in
  let strings = Prep.intern_strings mem prog in
  let codes = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace codes f.Ir.fname (compile_func prog layout edges f))
    prog.funcs;
  let func_by_index = Array.of_list (List.map (fun f -> f.Ir.fname) prog.funcs) in
  let func_addr = Hashtbl.create 16 in
  Array.iteri
    (fun i n -> Hashtbl.replace func_addr n (func_addr_base + i))
    func_by_index;
  let benv = Builtins.create_env mem in
  {
    prog; layout; mem; codes; func_by_index; func_addr; globals_addr;
    strings; benv; out = benv.Builtins.out; sp = Memory.stack_top; steps = 0;
    ring; max_steps;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let rec call t fname (args : argval list) : retval =
  match Hashtbl.find_opt t.codes fname with
  | None -> error "call to undefined function '%s'" fname
  | Some code ->
    let f = code.cfunc in
    let frame_base = t.sp - code.cframe_size in
    if frame_base < Memory.stack_limit then error "stack overflow in '%s'" fname;
    let saved_sp = t.sp in
    t.sp <- frame_base;
    let iregs = Array.make f.next_reg 0 in
    let fregs = Array.make f.next_reg 0.0 in
    (* write arguments into parameter slots *)
    let rec bind params args =
      match (params, args) with
      | [], _ -> ()
      | (pname, pty) :: ps, a :: rest ->
        let off =
          match Hashtbl.find_opt code.clocals pname with
          | Some (off, _) -> off
          | None ->
            error "no stack slot for parameter '%s' of function '%s'" pname
              fname
        in
        let addr = frame_base + off in
        (match (pty, a) with
        | Irty.Float, AFloat v -> Memory.store_f32 t.mem ~addr v
        | Irty.Double, AFloat v -> Memory.store_f64 t.mem ~addr v
        | Irty.Float, AInt v -> Memory.store_f32 t.mem ~addr (float_of_int v)
        | Irty.Double, AInt v -> Memory.store_f64 t.mem ~addr (float_of_int v)
        | _, AInt v ->
          Memory.store_int t.mem ~addr
            ~size:(min 8 (max 1 (Layout.sizeof t.layout pty)))
            v
        | _, AFloat v ->
          Memory.store_int t.mem ~addr
            ~size:(min 8 (max 1 (Layout.sizeof t.layout pty)))
            (int_of_float v));
        bind ps rest
      | _ :: _, [] -> error "too few arguments to '%s'" fname
    in
    bind f.fparams args;
    (match code.cedges with
    | Some r -> Edges.bump r ~src:(-1) ~dst:code.centry
    | None -> ());
    let result = exec_blocks t code frame_base iregs fregs code.centry in
    t.sp <- saved_sp;
    result

and exec_blocks t code frame_base iregs fregs entry : retval =
  let fl = code.cfloat_reg in
  let mem = t.mem in
  let get_i (o : Ir.operand) =
    match o with
    | Ir.Oreg r -> if fl.(r) then int_of_float fregs.(r) else iregs.(r)
    | Ir.Oimm n -> Int64.to_int n
    | Ir.Ofimm f -> int_of_float f
  in
  let get_f (o : Ir.operand) =
    match o with
    | Ir.Oreg r -> if fl.(r) then fregs.(r) else float_of_int iregs.(r)
    | Ir.Oimm n -> Int64.to_float n
    | Ir.Ofimm f -> f
  in
  let get_arg (o : Ir.operand) : argval =
    match o with
    | Ir.Oreg r -> if fl.(r) then AFloat fregs.(r) else AInt iregs.(r)
    | Ir.Oimm n -> AInt (Int64.to_int n)
    | Ir.Ofimm f -> AFloat f
  in
  let set r v = if fl.(r) then fregs.(r) <- float_of_int v else iregs.(r) <- v in
  let setf r v = if fl.(r) then fregs.(r) <- v else iregs.(r) <- int_of_float v in
  let mem_event addr size write isf iid =
    match t.ring with
    | Some rg -> Ring.push rg addr (Ring.meta ~size ~write ~is_float:isf ~iid)
    | None -> ()
  in
  let field_bits acc =
    (* bit-field handling: returns Some (unit_size, bit_off, width) *)
    match acc with
    | Some { Ir.astruct; afield } -> (
      let flx = Layout.field_layout t.layout astruct afield in
      match flx.bit_width with
      | Some w -> Some (Layout.sizeof t.layout flx.fty, flx.bit_off, w)
      | None -> None)
    | None -> None
  in
  let rec run_block bid : retval =
    let instrs = code.cblocks.(bid) in
    let n = Array.length instrs in
    for idx = 0 to n - 1 do
      t.steps <- t.steps + 1;
      if t.steps > t.max_steps then error "step limit exceeded";
      exec_instr instrs.(idx)
    done;
    t.steps <- t.steps + 1 (* the terminator issues too *);
    if t.steps > t.max_steps then error "step limit exceeded";
    (match code.cterms.(bid) with
    | Ir.Tret None -> RVoid
    | Ir.Tret (Some o) ->
      if Irty.is_float_ty code.cfunc.fret then RFloat (get_f o)
      else RInt (get_i o)
    | Ir.Tjmp dst ->
      edge bid dst;
      run_block dst
    | Ir.Tbr (c, a, b) ->
      let dst = if get_i c <> 0 then a else b in
      edge bid dst;
      run_block dst)
  and edge src dst =
    match code.cedges with Some r -> Edges.bump r ~src ~dst | None -> ()
  and exec_instr (i : Ir.instr) =
    match i.idesc with
    | Ir.Imov (r, o) -> if fl.(r) then fregs.(r) <- get_f o else iregs.(r) <- get_i o
    | Ir.Ibin (r, op, ty, a, b) ->
      if Irty.is_float_ty ty then begin
        let x = get_f a and y = get_f b in
        match op with
        | Ir.Add -> setf r (x +. y)
        | Ir.Sub -> setf r (x -. y)
        | Ir.Mul -> setf r (x *. y)
        | Ir.Div -> setf r (x /. y)
        | Ir.Lt -> set r (if x < y then 1 else 0)
        | Ir.Le -> set r (if x <= y then 1 else 0)
        | Ir.Gt -> set r (if x > y then 1 else 0)
        | Ir.Ge -> set r (if x >= y then 1 else 0)
        | Ir.Eq -> set r (if x = y then 1 else 0)
        | Ir.Ne -> set r (if x <> y then 1 else 0)
        | Ir.Mod | Ir.Band | Ir.Bor | Ir.Bxor | Ir.Shl | Ir.Shr ->
          error "float operand to integer-only operator"
      end
      else begin
        let x = get_i a and y = get_i b in
        match op with
        | Ir.Add -> set r (x + y)
        | Ir.Sub -> set r (x - y)
        | Ir.Mul -> set r (x * y)
        | Ir.Div ->
          if y = 0 then error "integer division by zero";
          set r (x / y)
        | Ir.Mod ->
          if y = 0 then error "integer modulo by zero";
          set r (x mod y)
        | Ir.Band -> set r (x land y)
        | Ir.Bor -> set r (x lor y)
        | Ir.Bxor -> set r (x lxor y)
        | Ir.Shl -> set r (x lsl (y land 63))
        | Ir.Shr -> set r (x asr (y land 63))
        | Ir.Lt -> set r (if x < y then 1 else 0)
        | Ir.Le -> set r (if x <= y then 1 else 0)
        | Ir.Gt -> set r (if x > y then 1 else 0)
        | Ir.Ge -> set r (if x >= y then 1 else 0)
        | Ir.Eq -> set r (if x = y then 1 else 0)
        | Ir.Ne -> set r (if x <> y then 1 else 0)
      end
    | Ir.Iun (r, op, ty, a) -> (
      match op with
      | Ir.Neg ->
        if Irty.is_float_ty ty then setf r (-.get_f a) else set r (-get_i a)
      | Ir.Lnot ->
        let z =
          if Irty.is_float_ty ty then get_f a = 0.0 else get_i a = 0
        in
        set r (if z then 1 else 0)
      | Ir.Bnot -> set r (lnot (get_i a)))
    | Ir.Icast (r, from_, to_, a, _) -> (
      match (Irty.is_float_ty from_, Irty.is_float_ty to_) with
      | true, true ->
        let v = get_f a in
        setf r (match to_ with Irty.Float -> Int32.float_of_bits (Int32.bits_of_float v) | _ -> v)
      | true, false -> set r (int_of_float (get_f a))
      | false, true -> setf r (float_of_int (get_i a))
      | false, false -> (
        let v = get_i a in
        match to_ with
        | Irty.Char -> set r (truncate_int 1 v)
        | Irty.Short -> set r (truncate_int 2 v)
        | Irty.Int -> set r (truncate_int 4 v)
        | _ -> set r v))
    | Ir.Iload (r, a, ty, acc) -> (
      let addr = get_i a in
      let isf = Irty.is_float_ty ty in
      match field_bits acc with
      | Some (unit_size, bit_off, width) ->
        mem_event addr unit_size false false i.iid;
        let unit_v = Memory.load_int mem ~addr ~size:unit_size in
        let v = (unit_v asr bit_off) land ((1 lsl width) - 1) in
        set r v
      | None -> (
        match ty with
        | Irty.Float ->
          mem_event addr 4 false true i.iid;
          setf r (Memory.load_f32 mem ~addr)
        | Irty.Double ->
          mem_event addr 8 false true i.iid;
          setf r (Memory.load_f64 mem ~addr)
        | _ ->
          let size = max 1 (min 8 (Layout.sizeof t.layout ty)) in
          mem_event addr size false isf i.iid;
          set r (Memory.load_int mem ~addr ~size)))
    | Ir.Istore (a, v, ty, acc) -> (
      let addr = get_i a in
      match field_bits acc with
      | Some (unit_size, bit_off, width) ->
        mem_event addr unit_size true false i.iid;
        let old = Memory.load_int mem ~addr ~size:unit_size in
        let mask = ((1 lsl width) - 1) lsl bit_off in
        let nv = (old land lnot mask) lor ((get_i v lsl bit_off) land mask) in
        Memory.store_int mem ~addr ~size:unit_size nv
      | None -> (
        match ty with
        | Irty.Float ->
          mem_event addr 4 true true i.iid;
          Memory.store_f32 mem ~addr (get_f v)
        | Irty.Double ->
          mem_event addr 8 true true i.iid;
          Memory.store_f64 mem ~addr (get_f v)
        | _ ->
          let size = max 1 (min 8 (Layout.sizeof t.layout ty)) in
          mem_event addr size true false i.iid;
          Memory.store_int mem ~addr ~size (get_i v)))
    | Ir.Iaddrglob (r, g) -> (
      match Hashtbl.find_opt t.globals_addr g with
      | Some (addr, _) -> set r addr
      | None -> error "unknown global '%s'" g)
    | Ir.Iaddrlocal (r, l) -> (
      match Hashtbl.find_opt code.clocals l with
      | Some (off, _) -> set r (frame_base + off)
      | None -> error "unknown local '%s' in '%s'" l code.cfunc.fname)
    | Ir.Iaddrstr (r, s) -> set r (Hashtbl.find t.strings s)
    | Ir.Iaddrfunc (r, f) -> (
      match Hashtbl.find_opt t.func_addr f with
      | Some a -> set r a
      | None -> error "address of undefined function '%s'" f)
    | Ir.Ifieldaddr (r, b, s, fi) ->
      let base = get_i b in
      let flx = Layout.field_layout t.layout s fi in
      set r (base + flx.byte_off)
    | Ir.Iptradd (r, b, idx, ty) ->
      set r (get_i b + (get_i idx * Layout.sizeof t.layout ty))
    | Ir.Icall (dst, callee, args) -> (
      let argvals = List.map get_arg args in
      let res =
        match callee with
        | Ir.Cdirect n -> call t n argvals
        | Ir.Cbuiltin n -> Builtins.exec t.benv n argvals
        | Ir.Cextern _ ->
          (* library functions outside the compilation scope are stubs: the
             legality analysis (LIBC) is about what the compiler may assume,
             not whether the program runs *)
          RInt 0
        | Ir.Cindirect o ->
          let a = get_i o in
          let idx = a - func_addr_base in
          if idx < 0 || idx >= Array.length t.func_by_index then
            error "indirect call through bad pointer 0x%x" a;
          call t t.func_by_index.(idx) argvals
      in
      match (dst, res) with
      | None, _ -> ()
      | Some r, RInt v -> set r v
      | Some r, RFloat v -> setf r v
      | Some r, RVoid -> set r 0)
    | Ir.Ialloc (r, kind, count, elem) -> (
      let n = get_i count in
      let elem_size = max 1 (Layout.sizeof t.layout elem) in
      let bytes = n * elem_size in
      match kind with
      | Ir.Amalloc -> set r (Memory.alloc_heap mem ~size:bytes ~zero:false)
      | Ir.Acalloc -> set r (Memory.alloc_heap mem ~size:bytes ~zero:true)
      | Ir.Arealloc old_op ->
        let old = get_i old_op in
        let na = Memory.alloc_heap mem ~size:bytes ~zero:false in
        (if old <> 0 then
           match Memory.alloc_size mem old with
           | Some osz -> Memory.blit mem ~dst:na ~src:old ~len:(min osz bytes)
           | None -> error "realloc of invalid pointer 0x%x" old);
        set r na)
    | Ir.Ifree o -> Memory.free_heap mem (get_i o)
    | Ir.Imemset (d, v, n, _) ->
      let dst = get_i d and byte = get_i v and len = get_i n in
      touch_range dst len true i.iid;
      Memory.fill mem ~dst ~byte ~len
    | Ir.Imemcpy (d, s, n, _) ->
      let dst = get_i d and src = get_i s and len = get_i n in
      touch_range src len false i.iid;
      touch_range dst len true i.iid;
      Memory.blit mem ~dst ~src ~len
  and touch_range addr len write iid =
    match t.ring with Some rg -> push_range rg addr len write iid | None -> ()
  in
  run_block entry

let run ?(args = []) (t : t) : result =
  Buffer.clear t.out;
  t.steps <- 0;
  t.sp <- Memory.stack_top;
  if not (Hashtbl.mem t.codes "main") then error "program has no 'main'";
  let res =
    with_ring t.ring (fun () ->
        try call t "main" (List.map (fun v -> AInt v) args)
        with Memory.Fault msg -> error "memory fault: %s" msg)
  in
  { exit_code = Rt.exit_code_of_retval res;
    output = Buffer.contents t.out;
    steps = t.steps }

let run_program ?args prog = run ?args (create prog)
