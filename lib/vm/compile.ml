(* The compiled VM engine: closure-threaded code with superblocks.

   At [create] time each [Ir.instr] is pre-resolved into an OCaml
   closure over a [frame]; running a block is then just an array sweep
   of [frame -> unit] thunks plus one closure for the terminator. The
   compilation step bakes in everything the tree-walker re-derives per
   executed instruction:

   - register-direct forms: the common instruction shapes (int binops
     and compares on reg/reg and reg/imm, float arithmetic with a
     register or constant operand, float compares on reg/reg, int/float
     casts, movs, [Tbr] on an int register, every int/f32/f64 load and
     store) compile to one closure that reads and writes
     [f.ir]/[f.fr] itself — no operand-getter or result-setter
     closures, and no boxed float crossing a closure boundary;
   - loads and stores reach the VM's byte buffer directly: after one
     bounds check (above the null page, wholly inside the current
     buffer) the access is an unchecked native read or write; anything
     else — growth past the buffer, null-page faults — takes the
     [Memory] call the access would always have made, so faults,
     messages and growth are unchanged;
   - the event ring specialized away: a ring-free run compiles to
     closures with no event plumbing, the measure path to closures that
     push to the ring inline (same meta word, same order as
     [with_event]); rare operand shapes (bit-fields, float-bank
     addresses, cross-bank movs) keep the generic getter/setter
     compilation;
   - locals, globals, interned strings and function addresses folded to
     constant offsets, [Layout.sizeof] results and bit-field masks
     computed once per instruction;
   - edge profiling ([edges]) compiled into the terminators: a counted
     edge is one increment of a counter slot computed at compile time;
   - direct calls bind arguments through per-call-site closures that
     already know the callee's parameter offsets, types and sizes;
   - superblocks: straight-line Tjmp chains fuse into single blocks
     (see [fuse_superblocks]), an address producer
     (fieldaddr/ptradd/addr-of) fuses into the load or store addressing
     through it, and each block's last body thunk folds into its
     terminator.

   Semantics are identical to {!Interp} by construction: both engines
   share {!Prep} (register banks, frame layout, memory image) and
   {!Builtins} (output, printf, LCG), raise the same {!Rt.Runtime_error}
   messages, and count steps the same way (one per instruction plus one
   per terminator — this backend adds them per superblock, which yields
   the same totals and the same step-limit failures). Compile-time name
   resolution failures are not reported eagerly: an unknown global or
   local compiles to a closure that raises the interpreter's exact
   error if (and only if) the instruction is actually executed. *)

exception Runtime_error = Rt.Runtime_error

open Rt
module Ring = Slo_cachesim.Ring

type result = Rt.result = { exit_code : int; output : string; steps : int }

let error = Rt.error

(* per-activation state: frame base plus the two register banks *)
type frame = { fb : int; ir : int array; fr : float array }

(* a compiled basic block, or a fused chain of Tjmp-linked blocks *)
type bcode = {
  bc_steps : int;  (* instruction count + 1 per constituent terminator *)
  bc_body : (frame -> unit) array;
  bc_term : frame -> int;  (* successor block id, or -1 to return *)
  bc_ret : frame -> retval;  (* only consulted when bc_term yields -1 *)
}

(* a compiled function; fields are filled in two passes (signature-level
   facts first, bodies second) so call sites can resolve forward
   references at compile time *)
type fcode = {
  fc_name : string;
  mutable fc_entry : int;
  mutable fc_ni : int;  (* integer-bank registers (max used index + 1) *)
  mutable fc_nf : int;  (* float-bank registers *)
  mutable fc_frame_size : int;
  mutable fc_blocks : bcode array;
  mutable fc_bind : argval list -> int -> unit;  (* generic binder *)
  mutable fc_edges : int array option;
    (* the function's {!Edges} counters when profiling; its entries
       count in row 0, at slot [fc_entry] *)
}

type t = {
  mem : Memory.t;
  (* indexed like Ir.program.funcs, but resolved through the name table
     so duplicate names dispatch to the same function as the walker *)
  dispatch : fcode array;
  fcode_tbl : (string, fcode) Hashtbl.t;
  benv : Builtins.env;
  out : Buffer.t;
  mutable sp : int;
  mutable steps : int;
  max_steps : int;
  ring : Ring.t option;
    (* where loads and stores push their access events, if anywhere.
       Chosen once at [create]; every load/store closure is compiled
       against exactly one case, so the hot path carries no dispatch *)
  edges : Edges.t option;
}

(* ------------------------------------------------------------------ *)
(* Execution core                                                      *)
(* ------------------------------------------------------------------ *)

let exec_fcode t (fc : fcode) (frame : frame) : retval =
  let blocks = fc.fc_blocks in
  let max_steps = t.max_steps in
  let rec go bid =
    let bc = blocks.(bid) in
    let s = t.steps + bc.bc_steps in
    t.steps <- s;
    if s > max_steps then error "step limit exceeded";
    let body = bc.bc_body in
    for k = 0 to Array.length body - 1 do
      (Array.unsafe_get body k) frame
    done;
    let nxt = bc.bc_term frame in
    if nxt >= 0 then go nxt else bc.bc_ret frame
  in
  go fc.fc_entry

(* the call prologue's entry count *)
let count_entry (fc : fcode) =
  match fc.fc_edges with
  | Some c ->
    let e = fc.fc_entry in
    c.(e) <- c.(e) + 1
  | None -> ()

(* the argval-list calling path: [main] and indirect calls *)
let call_generic t (fc : fcode) (args : argval list) : retval =
  let frame_base = t.sp - fc.fc_frame_size in
  if frame_base < Memory.stack_limit then
    error "stack overflow in '%s'" fc.fc_name;
  let saved_sp = t.sp in
  t.sp <- frame_base;
  fc.fc_bind args frame_base;
  count_entry fc;
  let frame =
    { fb = frame_base; ir = Array.make fc.fc_ni 0;
      fr = Array.make fc.fc_nf 0.0 }
  in
  let res = exec_fcode t fc frame in
  t.sp <- saved_sp;
  res

(* ------------------------------------------------------------------ *)
(* Register-direct forms                                               *)
(* ------------------------------------------------------------------ *)

(* Everything below is either a top-level [@inline] helper or a closure
   built from them: without flambda (and under dune's [-opaque] dev
   profile) only direct calls to known functions of this module inline,
   so a helper passed as an argument would be an indirect call again.
   Each closure is therefore written out once per address form. *)

let[@inline] rd f r = Array.unsafe_get f.ir r
let[@inline] wr f r v = Array.unsafe_set f.ir r v
let[@inline] rdf f r = Array.unsafe_get f.fr r
let[@inline] wrf f r v = Array.unsafe_set f.fr r v

(* native-order unchecked buffer accessors; the fast paths bounds-check
   once themselves and are only compiled on little-endian hosts, where
   native order is the VM's byte order *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let null_end = Memory.globals_base

(* The buffer fast-path invariant: an access of [size] bytes at [a] that
   lies above the null page and wholly inside the current buffer is
   exactly one that {!Memory.check} passes without growing, so reading
   or writing the bytes directly is what the [Memory] call would do.
   Everything else calls [Memory], which grows the image or faults with
   its usual message. The buffer is re-read on every access because
   growth replaces it. Written as [a <= len - size] so a wild address
   near [max_int] cannot overflow into the range. *)
let[@inline] in_buf b a size = a >= null_end && a <= Bytes.length b - size

let[@inline] load_int (mem : Memory.t) size a =
  let b = mem.Memory.buf in
  if in_buf b a size then
    if size = 8 then Int64.to_int (get64u b a)
    else if size = 4 then Int32.to_int (get32u b a)
    else if size = 1 then (Char.code (Bytes.unsafe_get b a) lxor 0x80) - 0x80
    else (get16u b a lxor 0x8000) - 0x8000
  else Memory.load_int mem ~addr:a ~size

let[@inline] store_int (mem : Memory.t) size a v =
  let b = mem.Memory.buf in
  if in_buf b a size then
    if size = 8 then set64u b a (Int64.of_int v)
    else if size = 4 then set32u b a (Int32.of_int v)
    else if size = 1 then Bytes.unsafe_set b a (Char.unsafe_chr (v land 0xff))
    else set16u b a (v land 0xffff)
  else Memory.store_int mem ~addr:a ~size v

(* [size] 8 is a double, 4 a float *)
let[@inline] load_float (mem : Memory.t) size a =
  let b = mem.Memory.buf in
  if in_buf b a size then
    if size = 8 then Int64.float_of_bits (get64u b a)
    else Int32.float_of_bits (get32u b a)
  else if size = 8 then Memory.load_f64 mem ~addr:a
  else Memory.load_f32 mem ~addr:a

let[@inline] store_float (mem : Memory.t) size a v =
  let b = mem.Memory.buf in
  if in_buf b a size then
    if size = 8 then set64u b a (Int64.bits_of_float v)
    else set32u b a (Int32.bits_of_float v)
  else if size = 8 then Memory.store_f64 mem ~addr:a v
  else Memory.store_f32 mem ~addr:a v

(* the inlined ring push, for closures compiled with [ev] set: two
   unsafe stores plus a full-check, no call, no allocation. [addrs] and
   [metas] are re-read through [rg] on every push — a sink is allowed
   to swap the buffers out (Drainer does), so hoisting them into the
   closure environment would write into a retired buffer after the
   first flush *)
let[@inline] emit ev rg m a =
  if ev then begin
    if rg.Ring.len = rg.Ring.cap then Ring.flush rg;
    let i = rg.Ring.len in
    Array.unsafe_set rg.Ring.addrs i a;
    Array.unsafe_set rg.Ring.metas i m;
    rg.Ring.len <- i + 1
  end

(* the ring a ring-free closure carries but never pushes to *)
let no_ring = Ring.create ~cap:1 ()

(* Wrap an address accessor so that evaluating it also records the
   access event, for the generic load/store compilation: the meta word
   folds to one immediate per compiled load/store and the push is
   [emit]'s. Without a ring nothing is added (the accessor is returned
   as is), which keeps ring-free runs free of event plumbing. *)
let with_event ~ring ~(ga : frame -> int) ~size ~write ~is_float ~iid :
    frame -> int =
  match ring with
  | None -> ga
  | Some rg ->
    let m = Ring.meta ~size ~write ~is_float ~iid in
    fun f ->
      let addr = ga f in
      emit true rg m addr;
      addr

(* Where a register-direct load or store takes its address from. Every
   form also writes the address to register [d], the destination of the
   address producer fused into the access (the register may be live past
   it); a plain register operand [a] is [Abase (a, a, 0)], whose write
   is the identity. *)
type aform =
  | Abase of int * int * int  (** [d], base register, offset *)
  | Aframe of int * int * int
      (** [d], mask, offset: [(fb land mask) + offset] — mask -1 for a
          local's frame slot, 0 for a global's constant address *)
  | Aindex of int * int * int * int
      (** [d], base register, index register, scale *)

let[@inline] base_addr f d b off =
  let a = rd f b + off in
  wr f d a;
  a

let[@inline] frame_addr f d mask off =
  let a = (f.fb land mask) + off in
  wr f d a;
  a

let[@inline] index_addr f d b i sc =
  let a = rd f b + (rd f i * sc) in
  wr f d a;
  a

(* an unfused address producer *)
let fast_addr = function
  | Abase (d, b, off) -> fun f -> ignore (base_addr f d b off)
  | Aframe (d, k, off) -> fun f -> ignore (frame_addr f d k off)
  | Aindex (d, b, i, sc) -> fun f -> ignore (index_addr f d b i sc)

(* loads into register [r] of the matching bank; [m] is the event's
   meta word, pushed before the access exactly like [with_event] *)
let fast_load_int ~ev rg m mem size r = function
  | Abase (d, b, off) ->
    fun f ->
      let a = base_addr f d b off in
      emit ev rg m a;
      wr f r (load_int mem size a)
  | Aframe (d, k, off) ->
    fun f ->
      let a = frame_addr f d k off in
      emit ev rg m a;
      wr f r (load_int mem size a)
  | Aindex (d, b, i, sc) ->
    fun f ->
      let a = index_addr f d b i sc in
      emit ev rg m a;
      wr f r (load_int mem size a)

let fast_load_float ~ev rg m mem size r = function
  | Abase (d, b, off) ->
    fun f ->
      let a = base_addr f d b off in
      emit ev rg m a;
      wrf f r (load_float mem size a)
  | Aframe (d, k, off) ->
    fun f ->
      let a = frame_addr f d k off in
      emit ev rg m a;
      wrf f r (load_float mem size a)
  | Aindex (d, b, i, sc) ->
    fun f ->
      let a = index_addr f d b i sc in
      emit ev rg m a;
      wrf f r (load_float mem size a)

(* stores of int register [v], or of the constant [k] when [v] < 0; the
   value is read after the address form's register write, as in the
   unfused producer-then-store sequence *)
let[@inline] ival f v k = if v >= 0 then rd f v else k
let[@inline] fval f v k = if v >= 0 then rdf f v else k

let fast_store_int ~ev rg m mem size v k = function
  | Abase (d, b, off) ->
    fun f ->
      let a = base_addr f d b off in
      emit ev rg m a;
      store_int mem size a (ival f v k)
  | Aframe (d, mk, off) ->
    fun f ->
      let a = frame_addr f d mk off in
      emit ev rg m a;
      store_int mem size a (ival f v k)
  | Aindex (d, b, i, sc) ->
    fun f ->
      let a = index_addr f d b i sc in
      emit ev rg m a;
      store_int mem size a (ival f v k)

let fast_store_float ~ev rg m mem size v (k : float) = function
  | Abase (d, b, off) ->
    fun f ->
      let a = base_addr f d b off in
      emit ev rg m a;
      store_float mem size a (fval f v k)
  | Aframe (d, mk, off) ->
    fun f ->
      let a = frame_addr f d mk off in
      emit ev rg m a;
      store_float mem size a (fval f v k)
  | Aindex (d, b, i, sc) ->
    fun f ->
      let a = index_addr f d b i sc in
      emit ev rg m a;
      store_float mem size a (fval f v k)

(* int binops: register [a] with register [b] *)
let ibin_rr (op : Ir.binop) r a b : frame -> unit =
  match op with
  | Ir.Add -> fun f -> wr f r (rd f a + rd f b)
  | Ir.Sub -> fun f -> wr f r (rd f a - rd f b)
  | Ir.Mul -> fun f -> wr f r (rd f a * rd f b)
  | Ir.Div ->
    fun f ->
      let d = rd f b in
      if d = 0 then error "integer division by zero";
      wr f r (rd f a / d)
  | Ir.Mod ->
    fun f ->
      let d = rd f b in
      if d = 0 then error "integer modulo by zero";
      wr f r (rd f a mod d)
  | Ir.Band -> fun f -> wr f r (rd f a land rd f b)
  | Ir.Bor -> fun f -> wr f r (rd f a lor rd f b)
  | Ir.Bxor -> fun f -> wr f r (rd f a lxor rd f b)
  | Ir.Shl -> fun f -> wr f r (rd f a lsl (rd f b land 63))
  | Ir.Shr -> fun f -> wr f r (rd f a asr (rd f b land 63))
  | Ir.Lt -> fun f -> wr f r (if rd f a < rd f b then 1 else 0)
  | Ir.Le -> fun f -> wr f r (if rd f a <= rd f b then 1 else 0)
  | Ir.Gt -> fun f -> wr f r (if rd f a > rd f b then 1 else 0)
  | Ir.Ge -> fun f -> wr f r (if rd f a >= rd f b then 1 else 0)
  | Ir.Eq -> fun f -> wr f r (if rd f a = rd f b then 1 else 0)
  | Ir.Ne -> fun f -> wr f r (if rd f a <> rd f b then 1 else 0)

(* ... and with the constant [n] *)
let ibin_ri (op : Ir.binop) r a n : frame -> unit =
  match op with
  | Ir.Add -> fun f -> wr f r (rd f a + n)
  | Ir.Sub -> fun f -> wr f r (rd f a - n)
  | Ir.Mul -> fun f -> wr f r (rd f a * n)
  | Ir.Div ->
    if n = 0 then fun _ -> error "integer division by zero"
    else fun f -> wr f r (rd f a / n)
  | Ir.Mod ->
    if n = 0 then fun _ -> error "integer modulo by zero"
    else fun f -> wr f r (rd f a mod n)
  | Ir.Band -> fun f -> wr f r (rd f a land n)
  | Ir.Bor -> fun f -> wr f r (rd f a lor n)
  | Ir.Bxor -> fun f -> wr f r (rd f a lxor n)
  | Ir.Shl ->
    let s = n land 63 in
    fun f -> wr f r (rd f a lsl s)
  | Ir.Shr ->
    let s = n land 63 in
    fun f -> wr f r (rd f a asr s)
  | Ir.Lt -> fun f -> wr f r (if rd f a < n then 1 else 0)
  | Ir.Le -> fun f -> wr f r (if rd f a <= n then 1 else 0)
  | Ir.Gt -> fun f -> wr f r (if rd f a > n then 1 else 0)
  | Ir.Ge -> fun f -> wr f r (if rd f a >= n then 1 else 0)
  | Ir.Eq -> fun f -> wr f r (if rd f a = n then 1 else 0)
  | Ir.Ne -> fun f -> wr f r (if rd f a <> n then 1 else 0)

(* float arithmetic on two float registers into float register [r], and
   float compares into int register [r]; [None] for the integer-only
   operators, whose generic compilation raises the walker's error *)
let fbin_rr (op : Ir.binop) r a b : (frame -> unit) option =
  match op with
  | Ir.Add -> Some (fun f -> wrf f r (rdf f a +. rdf f b))
  | Ir.Sub -> Some (fun f -> wrf f r (rdf f a -. rdf f b))
  | Ir.Mul -> Some (fun f -> wrf f r (rdf f a *. rdf f b))
  | Ir.Div -> Some (fun f -> wrf f r (rdf f a /. rdf f b))
  | Ir.Lt -> Some (fun f -> wr f r (if rdf f a < rdf f b then 1 else 0))
  | Ir.Le -> Some (fun f -> wr f r (if rdf f a <= rdf f b then 1 else 0))
  | Ir.Gt -> Some (fun f -> wr f r (if rdf f a > rdf f b then 1 else 0))
  | Ir.Ge -> Some (fun f -> wr f r (if rdf f a >= rdf f b then 1 else 0))
  | Ir.Eq -> Some (fun f -> wr f r (if rdf f a = rdf f b then 1 else 0))
  | Ir.Ne -> Some (fun f -> wr f r (if rdf f a <> rdf f b then 1 else 0))
  | Ir.Mod | Ir.Band | Ir.Bor | Ir.Bxor | Ir.Shl | Ir.Shr -> None

(* ... and float arithmetic with a constant on either side *)
let fbin_ri (op : Ir.binop) r a (k : float) : (frame -> unit) option =
  match op with
  | Ir.Add -> Some (fun f -> wrf f r (rdf f a +. k))
  | Ir.Sub -> Some (fun f -> wrf f r (rdf f a -. k))
  | Ir.Mul -> Some (fun f -> wrf f r (rdf f a *. k))
  | Ir.Div -> Some (fun f -> wrf f r (rdf f a /. k))
  | _ -> None

let fbin_ir (op : Ir.binop) r (k : float) b : (frame -> unit) option =
  match op with
  | Ir.Add -> Some (fun f -> wrf f r (k +. rdf f b))
  | Ir.Sub -> Some (fun f -> wrf f r (k -. rdf f b))
  | Ir.Mul -> Some (fun f -> wrf f r (k *. rdf f b))
  | Ir.Div -> Some (fun f -> wrf f r (k /. rdf f b))
  | _ -> None

let fcompare (op : Ir.binop) =
  match op with
  | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Superblock formation: a block that is the Tjmp target of its single
   predecessor is fused into that predecessor, so straight-line chains
   execute as one array sweep with one step-limit check per chain
   instead of per block. Fused interior blocks stay in the array but
   become unreachable: their only predecessor no longer branches to
   them, it falls through the concatenated body.
   Step accounting is chain-wise (the whole chain's steps are pre-added
   before the sweep), which extends the blockwise convention this
   backend already documents — totals and step-limit failures on any
   program are unchanged because a chain, once entered, always runs to
   its end. A pure-Tjmp cycle is not fused past one lap (the visited
   check below), so an infinite empty loop still re-enters the
   execution loop and hits the step limit. Under edge profiling the
   chain's terminator also counts the interior jump edges it no longer
   takes, each once per run of the chain, so the profile is the
   unfused one. *)
let fuse_superblocks (func : Ir.func) (row : Edges.row option)
    (blocks : bcode array) =
  let n = Array.length blocks in
  if n > 1 then begin
    let preds = Array.make n 0 in
    let bump d = if d >= 0 && d < n then preds.(d) <- preds.(d) + 1 in
    (* the entry gets an implicit edge so it is never fused away *)
    bump (Ir.entry_block func);
    List.iter
      (fun (b : Ir.block) ->
        match b.Ir.btermin with
        | Ir.Tjmp d -> bump d
        | Ir.Tbr (_, x, y) ->
          bump x;
          bump y
        | Ir.Tret _ -> ())
      func.fblocks;
    let jmp_tgt = Array.make n (-1) in
    List.iter
      (fun (b : Ir.block) ->
        match b.Ir.btermin with
        | Ir.Tjmp d when d >= 0 && d < n && b.bid >= 0 && b.bid < n ->
          jmp_tgt.(b.bid) <- d
        | _ -> ())
      func.fblocks;
    (* a fusable tail is the unique-jump target of its single predecessor *)
    let tail = Array.make n false in
    Array.iter
      (fun d -> if d >= 0 && preds.(d) = 1 then tail.(d) <- true)
      jmp_tgt;
    for h = 0 to n - 1 do
      if not tail.(h) then begin
        let rec chain acc cur =
          let d = jmp_tgt.(cur) in
          if d >= 0 && tail.(d) && not (List.mem d (cur :: acc)) then
            chain (cur :: acc) d
          else List.rev (cur :: acc)
        in
        match chain [] h with
        | [] | [ _ ] -> ()
        | seq ->
          (* tails are never heads, so the constituents read here are
             always the original per-block compilations *)
          let bcs = List.map (fun bid -> blocks.(bid)) seq in
          let last = List.nth bcs (List.length bcs - 1) in
          let term =
            match row with
            | None -> last.bc_term
            | Some r -> (
              let rec interior = function
                | src :: (dst :: _ as rest) ->
                  Edges.slot r ~src ~dst :: interior rest
                | [ _ ] | [] -> []
              in
              let c = r.Edges.counts and term = last.bc_term in
              match interior seq with
              | [ s ] ->
                fun f ->
                  c.(s) <- c.(s) + 1;
                  term f
              | slots ->
                let slots = Array.of_list slots in
                fun f ->
                  Array.iter (fun s -> c.(s) <- c.(s) + 1) slots;
                  term f)
          in
          blocks.(h) <-
            {
              bc_steps = List.fold_left (fun a bc -> a + bc.bc_steps) 0 bcs;
              bc_body = Array.concat (List.map (fun bc -> bc.bc_body) bcs);
              bc_term = term;
              bc_ret = last.bc_ret;
            }
      end
    done
  end

(* per-function facts shared between the two compile passes *)
type pre = {
  p_func : Ir.func;
  p_fc : fcode;
  p_fl : bool array;
  mutable p_locals : (string, int * Irty.t) Hashtbl.t;
}

(* pass 1: everything derivable from the signature and frame layout *)
let compile_signature t layout (p : pre) =
  let func = p.p_func and fc = p.p_fc in
  let mem = t.mem in
  fc.fc_entry <- Ir.entry_block func;
  (* register-bank specialization: every accessor is bank-resolved at
     compile time ([fl]), so each bank's array only needs to cover the
     registers actually assigned to it — not [next_reg] slots in both *)
  let ni = ref 0 and nf = ref 0 in
  Array.iteri
    (fun r isf -> if isf then nf := r + 1 else ni := r + 1)
    p.p_fl;
  fc.fc_ni <- !ni;
  fc.fc_nf <- !nf;
  let locals, frame_size = Prep.locals_layout layout func in
  p.p_locals <- locals;
  fc.fc_frame_size <- frame_size;
  fc.fc_edges <-
    Option.bind t.edges (fun e ->
        Option.map (fun r -> r.Edges.counts) (Edges.row e fc.fc_name));
  (* the generic binder: one pre-resolved slot writer per parameter *)
  let fname = fc.fc_name in
  let slot_writers =
    Array.of_list
      (List.map
         (fun (pname, pty) ->
           match Hashtbl.find_opt p.p_locals pname with
           | None ->
             fun (_ : argval) (_ : int) ->
               error "no stack slot for parameter '%s' of function '%s'" pname
                 fname
           | Some (off, _) -> (
             match pty with
             | Irty.Float ->
               fun a fb ->
                 Memory.store_f32 mem ~addr:(fb + off)
                   (match a with AFloat v -> v | AInt v -> float_of_int v)
             | Irty.Double ->
               fun a fb ->
                 Memory.store_f64 mem ~addr:(fb + off)
                   (match a with AFloat v -> v | AInt v -> float_of_int v)
             | _ ->
               let size = min 8 (max 1 (Layout.sizeof layout pty)) in
               fun a fb ->
                 Memory.store_int mem ~addr:(fb + off) ~size
                   (match a with AInt v -> v | AFloat v -> int_of_float v)))
         func.fparams)
  in
  fc.fc_bind <-
    (fun args fb ->
      let n = Array.length slot_writers in
      let rec go k args =
        if k < n then
          match args with
          | [] -> error "too few arguments to '%s'" fname
          | a :: rest ->
            (Array.unsafe_get slot_writers k) a fb;
            go (k + 1) rest
      in
      go 0 args)

(* pass 2: block bodies *)
let compile_body t (prog : Ir.program) layout globals_addr strings func_addr
    pre_of (p : pre) =
  let func = p.p_func and fc = p.p_fc in
  let fl = p.p_fl and clocals = p.p_locals in
  let mem = t.mem and ring = t.ring in
  (* an int-bank register; the register-direct forms read and write
     [f.ir]/[f.fr] without the cross-bank conversions of [geti]/[setf] *)
  let ireg r = not fl.(r) in
  (* operand accessors, bank-resolved at compile time *)
  let geti (o : Ir.operand) : frame -> int =
    match o with
    | Ir.Oreg r ->
      if fl.(r) then fun f -> int_of_float (Array.unsafe_get f.fr r)
      else fun f -> Array.unsafe_get f.ir r
    | Ir.Oimm n ->
      let v = Int64.to_int n in
      fun _ -> v
    | Ir.Ofimm x ->
      let v = int_of_float x in
      fun _ -> v
  in
  let getf (o : Ir.operand) : frame -> float =
    match o with
    | Ir.Oreg r ->
      if fl.(r) then fun f -> Array.unsafe_get f.fr r
      else fun f -> float_of_int (Array.unsafe_get f.ir r)
    | Ir.Oimm n ->
      let v = Int64.to_float n in
      fun _ -> v
    | Ir.Ofimm x -> fun _ -> x
  in
  let getarg (o : Ir.operand) : frame -> argval =
    match o with
    | Ir.Oreg r ->
      if fl.(r) then fun f -> AFloat (Array.unsafe_get f.fr r)
      else fun f -> AInt (Array.unsafe_get f.ir r)
    | Ir.Oimm n ->
      let v = AInt (Int64.to_int n) in
      fun _ -> v
    | Ir.Ofimm x ->
      let v = AFloat x in
      fun _ -> v
  in
  let seti r : frame -> int -> unit =
    if fl.(r) then fun f v -> Array.unsafe_set f.fr r (float_of_int v)
    else fun f v -> Array.unsafe_set f.ir r v
  in
  let setf r : frame -> float -> unit =
    if fl.(r) then fun f v -> Array.unsafe_set f.fr r v
    else fun f v -> Array.unsafe_set f.ir r (int_of_float v)
  in
  (* result write-back for calls *)
  let assign_of dst : frame -> retval -> unit =
    match dst with
    | None -> fun _ _ -> ()
    | Some r ->
      let sti = seti r and stf = setf r in
      fun f res ->
        (match res with
        | RInt v -> sti f v
        | RFloat v -> stf f v
        | RVoid -> sti f 0)
  in
  (* a direct call with compile-time-known callee: per-call-site binder
     closures write arguments straight into the callee frame *)
  let compile_direct_call dst (callee_p : pre) (args : Ir.operand list) :
      frame -> unit =
    let callee = callee_p.p_fc in
    let assign = assign_of dst in
    let params = callee_p.p_func.fparams in
    if List.length args < List.length params then
      (* the walker only reports missing arguments once the frame fits *)
      fun _ ->
        if t.sp - callee.fc_frame_size < Memory.stack_limit then
          error "stack overflow in '%s'" callee.fc_name;
        error "too few arguments to '%s'" callee.fc_name
    else begin
      let rec take params args =
        match (params, args) with
        | [], _ -> []
        | (pname, pty) :: ps, a :: rest ->
          let binder =
            match Hashtbl.find_opt callee_p.p_locals pname with
            | None ->
              let cname = callee.fc_name in
              fun (_ : frame) (_ : int) ->
                error "no stack slot for parameter '%s' of function '%s'" pname
                  cname
            | Some (off, _) -> (
              match pty with
              | Irty.Float ->
                let g = getf a in
                fun f fb -> Memory.store_f32 mem ~addr:(fb + off) (g f)
              | Irty.Double ->
                let g = getf a in
                fun f fb -> Memory.store_f64 mem ~addr:(fb + off) (g f)
              | _ ->
                let size = min 8 (max 1 (Layout.sizeof layout pty)) in
                let g = geti a in
                fun f fb -> Memory.store_int mem ~addr:(fb + off) ~size (g f))
          in
          binder :: take ps rest
        | _ :: _, [] -> assert false (* length-checked above *)
      in
      let binders = Array.of_list (take params args) in
      fun f ->
        let frame_base = t.sp - callee.fc_frame_size in
        if frame_base < Memory.stack_limit then
          error "stack overflow in '%s'" callee.fc_name;
        let saved_sp = t.sp in
        t.sp <- frame_base;
        for k = 0 to Array.length binders - 1 do
          (Array.unsafe_get binders k) f frame_base
        done;
        count_entry callee;
        let nf =
          { fb = frame_base; ir = Array.make callee.fc_ni 0;
            fr = Array.make callee.fc_nf 0.0 }
        in
        let res = exec_fcode t callee nf in
        t.sp <- saved_sp;
        assign f res
    end
  in
  (* the generic load and store, for the shapes the register-direct
     forms below leave out (bit-fields, cross-bank operands): address
     accessor, event wrapper, [Memory] call and result setter are
     separate closures *)
  let compile_load ~iid r a ty acc : frame -> unit =
    let ga = geti a in
    match
      match acc with
      | Some ac -> Prep.bitfield_info prog layout ac
      | None -> None
    with
    | Some (unit_size, bit_off, width) ->
      let mask = (1 lsl width) - 1 in
      let st = seti r in
      let ga =
        with_event ~ring ~ga ~size:unit_size ~write:false ~is_float:false ~iid
      in
      fun f ->
        st f
          (Memory.load_int mem ~addr:(ga f) ~size:unit_size
           asr bit_off land mask)
    | None -> (
      match ty with
      | Irty.Float ->
        let st = setf r in
        let ga = with_event ~ring ~ga ~size:4 ~write:false ~is_float:true ~iid in
        fun f -> st f (Memory.load_f32 mem ~addr:(ga f))
      | Irty.Double ->
        let st = setf r in
        let ga = with_event ~ring ~ga ~size:8 ~write:false ~is_float:true ~iid in
        fun f -> st f (Memory.load_f64 mem ~addr:(ga f))
      | _ ->
        let size = max 1 (min 8 (Layout.sizeof layout ty)) in
        let st = seti r in
        let ga =
          with_event ~ring ~ga ~size ~write:false ~is_float:false ~iid
        in
        fun f -> st f (Memory.load_int mem ~addr:(ga f) ~size))
  in
  let compile_store ~iid a v ty acc : frame -> unit =
    let ga = geti a in
    match
      match acc with
      | Some ac -> Prep.bitfield_info prog layout ac
      | None -> None
    with
    | Some (unit_size, bit_off, width) ->
      let gv = geti v in
      let mask = ((1 lsl width) - 1) lsl bit_off in
      let ga =
        with_event ~ring ~ga ~size:unit_size ~write:true ~is_float:false ~iid
      in
      fun f ->
        let addr = ga f in
        let old = Memory.load_int mem ~addr ~size:unit_size in
        let nv = (old land lnot mask) lor ((gv f lsl bit_off) land mask) in
        Memory.store_int mem ~addr ~size:unit_size nv
    | None -> (
      match ty with
      | Irty.Float ->
        let gv = getf v in
        let ga = with_event ~ring ~ga ~size:4 ~write:true ~is_float:true ~iid in
        fun f ->
          let addr = ga f in
          Memory.store_f32 mem ~addr (gv f)
      | Irty.Double ->
        let gv = getf v in
        let ga = with_event ~ring ~ga ~size:8 ~write:true ~is_float:true ~iid in
        fun f ->
          let addr = ga f in
          Memory.store_f64 mem ~addr (gv f)
      | _ ->
        let size = max 1 (min 8 (Layout.sizeof layout ty)) in
        let gv = geti v in
        let ga =
          with_event ~ring ~ga ~size ~write:true ~is_float:false ~iid
        in
        fun f ->
          let addr = ga f in
          Memory.store_int mem ~addr ~size (gv f))
  in
  let compile_instr (i : Ir.instr) : frame -> unit =
    let iid = i.iid in
    match i.idesc with
    | Ir.Imov (r, o) ->
      if fl.(r) then
        let g = getf o in
        fun f -> Array.unsafe_set f.fr r (g f)
      else
        let g = geti o in
        fun f -> Array.unsafe_set f.ir r (g f)
    | Ir.Ibin (r, op, ty, a, b) ->
      if Irty.is_float_ty ty then begin
        let x = getf a and y = getf b in
        let stf () = setf r and sti () = seti r in
        match op with
        | Ir.Add -> let st = stf () in fun f -> st f (x f +. y f)
        | Ir.Sub -> let st = stf () in fun f -> st f (x f -. y f)
        | Ir.Mul -> let st = stf () in fun f -> st f (x f *. y f)
        | Ir.Div -> let st = stf () in fun f -> st f (x f /. y f)
        | Ir.Lt -> let st = sti () in fun f -> st f (if x f < y f then 1 else 0)
        | Ir.Le -> let st = sti () in fun f -> st f (if x f <= y f then 1 else 0)
        | Ir.Gt -> let st = sti () in fun f -> st f (if x f > y f then 1 else 0)
        | Ir.Ge -> let st = sti () in fun f -> st f (if x f >= y f then 1 else 0)
        | Ir.Eq -> let st = sti () in fun f -> st f (if x f = y f then 1 else 0)
        | Ir.Ne -> let st = sti () in fun f -> st f (if x f <> y f then 1 else 0)
        | Ir.Mod | Ir.Band | Ir.Bor | Ir.Bxor | Ir.Shl | Ir.Shr ->
          fun _ -> error "float operand to integer-only operator"
      end
      else begin
        let x = geti a and y = geti b in
        let st = seti r in
        match op with
        | Ir.Add -> fun f -> st f (x f + y f)
        | Ir.Sub -> fun f -> st f (x f - y f)
        | Ir.Mul -> fun f -> st f (x f * y f)
        | Ir.Div ->
          fun f ->
            let d = y f in
            if d = 0 then error "integer division by zero";
            st f (x f / d)
        | Ir.Mod ->
          fun f ->
            let d = y f in
            if d = 0 then error "integer modulo by zero";
            st f (x f mod d)
        | Ir.Band -> fun f -> st f (x f land y f)
        | Ir.Bor -> fun f -> st f (x f lor y f)
        | Ir.Bxor -> fun f -> st f (x f lxor y f)
        | Ir.Shl -> fun f -> st f (x f lsl (y f land 63))
        | Ir.Shr -> fun f -> st f (x f asr (y f land 63))
        | Ir.Lt -> fun f -> st f (if x f < y f then 1 else 0)
        | Ir.Le -> fun f -> st f (if x f <= y f then 1 else 0)
        | Ir.Gt -> fun f -> st f (if x f > y f then 1 else 0)
        | Ir.Ge -> fun f -> st f (if x f >= y f then 1 else 0)
        | Ir.Eq -> fun f -> st f (if x f = y f then 1 else 0)
        | Ir.Ne -> fun f -> st f (if x f <> y f then 1 else 0)
      end
    | Ir.Iun (r, op, ty, a) -> (
      match op with
      | Ir.Neg ->
        if Irty.is_float_ty ty then
          let g = getf a and st = setf r in
          fun f -> st f (-.g f)
        else
          let g = geti a and st = seti r in
          fun f -> st f (-g f)
      | Ir.Lnot ->
        let st = seti r in
        if Irty.is_float_ty ty then
          let g = getf a in
          fun f -> st f (if g f = 0.0 then 1 else 0)
        else
          let g = geti a in
          fun f -> st f (if g f = 0 then 1 else 0)
      | Ir.Bnot ->
        let g = geti a and st = seti r in
        fun f -> st f (lnot (g f)))
    | Ir.Icast (r, from_, to_, a, _) -> (
      match (Irty.is_float_ty from_, Irty.is_float_ty to_) with
      | true, true -> (
        let g = getf a and st = setf r in
        match to_ with
        | Irty.Float ->
          fun f -> st f (Int32.float_of_bits (Int32.bits_of_float (g f)))
        | _ -> fun f -> st f (g f))
      | true, false ->
        let g = getf a and st = seti r in
        fun f -> st f (int_of_float (g f))
      | false, true ->
        let g = geti a and st = setf r in
        fun f -> st f (float_of_int (g f))
      | false, false -> (
        let g = geti a and st = seti r in
        match to_ with
        | Irty.Char -> fun f -> st f (truncate_int 1 (g f))
        | Irty.Short -> fun f -> st f (truncate_int 2 (g f))
        | Irty.Int -> fun f -> st f (truncate_int 4 (g f))
        | _ -> fun f -> st f (g f)))
    | Ir.Iload (r, a, ty, acc) -> compile_load ~iid r a ty acc
    | Ir.Istore (a, v, ty, acc) -> compile_store ~iid a v ty acc
    | Ir.Iaddrglob (r, g) -> (
      match Hashtbl.find_opt globals_addr g with
      | Some (addr, _) ->
        let st = seti r in
        fun f -> st f addr
      | None -> fun _ -> error "unknown global '%s'" g)
    | Ir.Iaddrlocal (r, l) -> (
      match Hashtbl.find_opt clocals l with
      | Some (off, _) ->
        let st = seti r in
        fun f -> st f (f.fb + off)
      | None ->
        let fname = func.fname in
        fun _ -> error "unknown local '%s' in '%s'" l fname)
    | Ir.Iaddrstr (r, s) -> (
      match Hashtbl.find_opt strings s with
      | Some addr ->
        let st = seti r in
        fun f -> st f addr
      | None -> fun _ -> raise Not_found (* interned from this program *))
    | Ir.Iaddrfunc (r, fn) -> (
      match Hashtbl.find_opt func_addr fn with
      | Some a ->
        let st = seti r in
        fun f -> st f a
      | None -> fun _ -> error "address of undefined function '%s'" fn)
    | Ir.Ifieldaddr (r, b, s, fi) ->
      let gb = geti b in
      let off = (Layout.field_layout layout s fi).Layout.byte_off in
      let st = seti r in
      fun f -> st f (gb f + off)
    | Ir.Iptradd (r, b, idx, ty) ->
      let gb = geti b and gi = geti idx in
      let sz = Layout.sizeof layout ty in
      let st = seti r in
      fun f -> st f (gb f + (gi f * sz))
    | Ir.Icall (dst, callee, args) -> (
      match callee with
      | Ir.Cdirect n -> (
        match Hashtbl.find_opt pre_of n with
        | Some callee_p -> compile_direct_call dst callee_p args
        | None -> fun _ -> error "call to undefined function '%s'" n)
      | Ir.Cbuiltin n ->
        let getters = Array.of_list (List.map getarg args) in
        let assign = assign_of dst in
        let benv = t.benv in
        fun f ->
          let vals = Array.to_list (Array.map (fun g -> g f) getters) in
          assign f (Builtins.exec benv n vals)
      | Ir.Cextern _ ->
        (* library functions outside the compilation scope are stubs: the
           legality analysis (LIBC) is about what the compiler may assume,
           not whether the program runs *)
        let assign = assign_of dst in
        fun f -> assign f (RInt 0)
      | Ir.Cindirect o ->
        let go = geti o in
        let getters = Array.of_list (List.map getarg args) in
        let assign = assign_of dst in
        let dispatch = t.dispatch in
        let nfuncs = Array.length dispatch in
        fun f ->
          let vals = Array.to_list (Array.map (fun g -> g f) getters) in
          let a = go f in
          let idx = a - func_addr_base in
          if idx < 0 || idx >= nfuncs then
            error "indirect call through bad pointer 0x%x" a;
          assign f (call_generic t (Array.unsafe_get dispatch idx) vals))
    | Ir.Ialloc (r, kind, count, elem) -> (
      let gc = geti count in
      let elem_size = max 1 (Layout.sizeof layout elem) in
      let st = seti r in
      match kind with
      | Ir.Amalloc ->
        fun f -> st f (Memory.alloc_heap mem ~size:(gc f * elem_size) ~zero:false)
      | Ir.Acalloc ->
        fun f -> st f (Memory.alloc_heap mem ~size:(gc f * elem_size) ~zero:true)
      | Ir.Arealloc old_op ->
        let go = geti old_op in
        fun f ->
          let bytes = gc f * elem_size in
          let old = go f in
          let na = Memory.alloc_heap mem ~size:bytes ~zero:false in
          (if old <> 0 then
             match Memory.alloc_size mem old with
             | Some osz -> Memory.blit mem ~dst:na ~src:old ~len:(min osz bytes)
             | None -> error "realloc of invalid pointer 0x%x" old);
          st f na)
    | Ir.Ifree o ->
      let g = geti o in
      fun f -> Memory.free_heap mem (g f)
    | Ir.Imemset (d, v, n, _) -> (
      let gd = geti d and gv = geti v and gn = geti n in
      match ring with
      | Some rg ->
        fun f ->
          let dst = gd f and byte = gv f and len = gn f in
          push_range rg dst len true iid;
          Memory.fill mem ~dst ~byte ~len
      | None -> fun f -> Memory.fill mem ~dst:(gd f) ~byte:(gv f) ~len:(gn f))
    | Ir.Imemcpy (d, s, n, _) -> (
      let gd = geti d and gs = geti s and gn = geti n in
      match ring with
      | Some rg ->
        fun f ->
          let dst = gd f and src = gs f and len = gn f in
          push_range rg src len false iid;
          push_range rg dst len true iid;
          Memory.blit mem ~dst ~src ~len
      | None -> fun f -> Memory.blit mem ~dst:(gd f) ~src:(gs f) ~len:(gn f))
  in
  let never_ret : frame -> retval = fun _ -> RVoid in
  let row = Option.bind t.edges (fun e -> Edges.row e func.fname) in
  let compile_term (b : Ir.block) : (frame -> int) * (frame -> retval) =
    match b.btermin with
    | Ir.Tret None -> ((fun _ -> -1), fun _ -> RVoid)
    | Ir.Tret (Some o) ->
      let retc =
        if Irty.is_float_ty func.fret then
          let g = getf o in
          fun f -> RFloat (g f)
        else
          let g = geti o in
          fun f -> RInt (g f)
      in
      ((fun _ -> -1), retc)
    | Ir.Tjmp dst -> (
      match row with
      | Some r ->
        let c = r.Edges.counts and s = Edges.slot r ~src:b.bid ~dst in
        ( (fun _ ->
            c.(s) <- c.(s) + 1;
            dst),
          never_ret )
      | None -> ((fun _ -> dst), never_ret))
    | Ir.Tbr (cond, x, y) -> (
      (* register-direct on an int register, through [geti] otherwise *)
      match (cond, row) with
      | Ir.Oreg k, None when ireg k ->
        ((fun f -> if rd f k <> 0 then x else y), never_ret)
      | Ir.Oreg k, Some r when ireg k ->
        let c = r.Edges.counts in
        let sx = Edges.slot r ~src:b.bid ~dst:x
        and sy = Edges.slot r ~src:b.bid ~dst:y in
        ( (fun f ->
            if rd f k <> 0 then begin
              c.(sx) <- c.(sx) + 1;
              x
            end
            else begin
              c.(sy) <- c.(sy) + 1;
              y
            end),
          never_ret )
      | _, Some r ->
        let g = geti cond and c = r.Edges.counts in
        let sx = Edges.slot r ~src:b.bid ~dst:x
        and sy = Edges.slot r ~src:b.bid ~dst:y in
        ( (fun f ->
            if g f <> 0 then begin
              c.(sx) <- c.(sx) + 1;
              x
            end
            else begin
              c.(sy) <- c.(sy) + 1;
              y
            end),
          never_ret )
      | _, None ->
        let g = geti cond in
        ((fun f -> if g f <> 0 then x else y), never_ret))
  in
  (* a register-direct load or store addressing through [form], or
     [None] for the shapes the generic compilation keeps: bit-fields,
     a destination or stored value in the other bank, odd sizes, and
     big-endian hosts *)
  let fast_access form (i : Ir.instr) : (frame -> unit) option =
    let ev, rg =
      match ring with Some rg -> (true, rg) | None -> (false, no_ring)
    in
    if Sys.big_endian then None
    else (
      let plain = function
        | Some ac -> Prep.bitfield_info prog layout ac = None
        | None -> true
      in
      let meta size write is_float = Ring.meta ~size ~write ~is_float ~iid:i.iid in
      let int_size ty =
        match ty with
        | Irty.Float | Irty.Double -> None
        | _ -> (
          match max 1 (min 8 (Layout.sizeof layout ty)) with
          | (1 | 2 | 4 | 8) as n -> Some n
          | _ -> None)
      in
      let float_size = function Irty.Float -> 4 | _ -> 8 in
      match i.idesc with
      | Ir.Iload (r, _, ty, acc) when plain acc -> (
        if Irty.is_float_ty ty then
          if fl.(r) then
            let size = float_size ty in
            Some (fast_load_float ~ev rg (meta size false true) mem size r form)
          else None
        else
          match int_size ty with
          | Some size when ireg r ->
            Some (fast_load_int ~ev rg (meta size false false) mem size r form)
          | _ -> None)
      | Ir.Istore (_, v, ty, acc) when plain acc -> (
        if Irty.is_float_ty ty then
          let size = float_size ty in
          let m = meta size true true in
          match v with
          | Ir.Oreg x when fl.(x) ->
            Some (fast_store_float ~ev rg m mem size x 0.0 form)
          | Ir.Ofimm k -> Some (fast_store_float ~ev rg m mem size (-1) k form)
          | _ -> None
        else
          match (int_size ty, v) with
          | Some size, Ir.Oreg x when ireg x ->
            Some (fast_store_int ~ev rg (meta size true false) mem size x 0 form)
          | Some size, Ir.Oimm k ->
            Some
              (fast_store_int ~ev rg (meta size true false) mem size (-1)
                 (Int64.to_int k) form)
          | _ -> None)
      | _ -> None)
  in
  (* an address producer as an address form: it computes an address into
     an int-bank register from int-bank operands *)
  let addr_producer (i : Ir.instr) : aform option =
    match i.idesc with
    | Ir.Ifieldaddr (r, Ir.Oreg b, s, fi) when ireg r && ireg b ->
      Some (Abase (r, b, (Layout.field_layout layout s fi).Layout.byte_off))
    | Ir.Iptradd (r, Ir.Oreg b, idx, ty) when ireg r && ireg b -> (
      let sz = Layout.sizeof layout ty in
      match idx with
      | Ir.Oreg x when ireg x -> Some (Aindex (r, b, x, sz))
      | Ir.Oimm n -> Some (Abase (r, b, Int64.to_int n * sz))
      | _ -> None)
    | Ir.Iaddrglob (r, g) when ireg r -> (
      match Hashtbl.find_opt globals_addr g with
      | Some (addr, _) -> Some (Aframe (r, 0, addr))
      | None -> None)
    | Ir.Iaddrlocal (r, l) when ireg r -> (
      match Hashtbl.find_opt clocals l with
      | Some (off, _) -> Some (Aframe (r, -1, off))
      | None -> None)
    | _ -> None
  in
  (* the register-direct compilation of one instruction, or [None] for
     the generic one *)
  let fast_instr (i : Ir.instr) : (frame -> unit) option =
    match i.idesc with
    | Ir.Iload (_, Ir.Oreg a, _, _) | Ir.Istore (Ir.Oreg a, _, _, _)
      when ireg a ->
      fast_access (Abase (a, a, 0)) i
    | Ir.Imov (r, Ir.Oreg x) when fl.(r) = fl.(x) ->
      if fl.(r) then Some (fun f -> wrf f r (rdf f x))
      else Some (fun f -> wr f r (rd f x))
    | Ir.Imov (r, Ir.Oimm n) when ireg r ->
      let v = Int64.to_int n in
      Some (fun f -> wr f r v)
    | Ir.Imov (r, Ir.Ofimm x) when fl.(r) -> Some (fun f -> wrf f r x)
    | Ir.Ibin (r, op, ty, a, b) when Irty.is_float_ty ty -> (
      (* a constant operand is read the way [getf] reads it *)
      let const = function
        | Ir.Oimm n -> Some (Int64.to_float n)
        | Ir.Ofimm x -> Some x
        | Ir.Oreg _ -> None
      in
      match (a, b) with
      | Ir.Oreg a, Ir.Oreg b when fl.(a) && fl.(b) && fl.(r) = not (fcompare op)
        ->
        fbin_rr op r a b
      | Ir.Oreg a, k when fl.(a) && fl.(r) -> (
        match const k with Some k -> fbin_ri op r a k | None -> None)
      | k, Ir.Oreg b when fl.(b) && fl.(r) -> (
        match const k with Some k -> fbin_ir op r k b | None -> None)
      | _ -> None)
    | Ir.Icast (r, from_, to_, Ir.Oreg a, _)
      when Irty.is_float_ty from_ <> Irty.is_float_ty to_
           && fl.(a) = Irty.is_float_ty from_
           && fl.(r) = Irty.is_float_ty to_ ->
      if fl.(a) then Some (fun f -> wr f r (int_of_float (rdf f a)))
      else Some (fun f -> wrf f r (float_of_int (rd f a)))
    | Ir.Ibin (r, op, ty, Ir.Oreg a, b)
      when (not (Irty.is_float_ty ty)) && ireg r && ireg a -> (
      match b with
      | Ir.Oreg b when ireg b -> Some (ibin_rr op r a b)
      | Ir.Oimm n -> Some (ibin_ri op r a (Int64.to_int n))
      | _ -> None)
    | Ir.Ifieldaddr _ | Ir.Iptradd _ | Ir.Iaddrglob _ | Ir.Iaddrlocal _ ->
      Option.map fast_addr (addr_producer i)
    | _ -> None
  in
  (* superblock peephole, part 1: a producer fused into the load or store
     addressing through its destination register. Fusing never changes
     observable state: the producer still writes its register first,
     the consumer's event, memory access and result write are
     byte-identical, and steps are counted from the IR ([bc_steps]
     below), not from the body array length. *)
  let fuse_pair (i : Ir.instr) (j : Ir.instr) : (frame -> unit) option =
    match addr_producer i with
    | Some ((Abase (d, _, _) | Aframe (d, _, _) | Aindex (d, _, _, _)) as form)
      -> (
      match j.idesc with
      | Ir.Iload (_, Ir.Oreg a, _, _) | Ir.Istore (Ir.Oreg a, _, _, _)
        when a = d ->
        fast_access form j
      | _ -> None)
    | None -> None
  in
  let compile_instrs instrs =
    (* any compile-time failure on the register-direct route falls back
       to the generic compilation, where name-resolution and layout
       failures compile to raising closures so they surface only if the
       instruction runs, matching the tree-walker's lazy failure points *)
    let emit i =
      match fast_instr i with
      | Some code -> code
      | None | (exception _) -> (
        match compile_instr i with
        | code -> code
        | exception e -> fun _ -> raise e)
    in
    let rec go acc = function
      | [] -> List.rev acc
      | i :: (j :: rest as tl) -> (
        match fuse_pair i j with
        | Some code -> go (code :: acc) rest
        | None | (exception _) -> go (emit i :: acc) tl)
      | [ i ] -> List.rev (emit i :: acc)
    in
    Array.of_list (go [] instrs)
  in
  (* an unreferenced block id executes as an empty body + [Tret None],
     exactly like the tree-walker's defaults *)
  let empty =
    { bc_steps = 1; bc_body = [||]; bc_term = (fun _ -> -1);
      bc_ret = (fun _ -> RVoid) }
  in
  (* superblock peephole, part 2: fold the last body thunk into the
     terminator closure — one fewer dispatch per executed block *)
  let fold_tail bc =
    let n = Array.length bc.bc_body in
    if n = 0 then bc
    else begin
      let last = bc.bc_body.(n - 1) in
      let term = bc.bc_term in
      {
        bc with
        bc_body = Array.sub bc.bc_body 0 (n - 1);
        bc_term =
          (fun f ->
            last f;
            term f);
      }
    end
  in
  let blocks = Array.make func.next_block empty in
  List.iter
    (fun (b : Ir.block) ->
      let body = compile_instrs b.instrs in
      let term, ret =
        match compile_term b with
        | r -> r
        | exception e -> ((fun _ -> raise e), never_ret)
      in
      (* steps are counted from the IR, not the body array: the peephole
         shortens the array without changing the executed step total *)
      blocks.(b.bid) <-
        { bc_steps = List.length b.instrs + 1; bc_body = body; bc_term = term;
          bc_ret = ret })
    func.fblocks;
  fuse_superblocks func row blocks;
  Array.iteri (fun k bc -> blocks.(k) <- fold_tail bc) blocks;
  fc.fc_blocks <- blocks

(* ------------------------------------------------------------------ *)
(* Setup and entry points                                              *)
(* ------------------------------------------------------------------ *)

let create ?edges ?ring ?(max_steps = Rt.default_max_steps)
    (prog : Ir.program) : t =
  let layout = Layout.create prog.structs in
  let mem = Memory.create () in
  (* identical image to the tree-walker: globals first, strings second *)
  let globals_addr = Prep.alloc_globals layout mem prog in
  let strings = Prep.intern_strings mem prog in
  let fcodes =
    Array.of_list
      (List.map
         (fun (f : Ir.func) ->
           {
             fc_name = f.fname; fc_entry = 0; fc_ni = 0; fc_nf = 0;
             fc_frame_size = 0; fc_blocks = [||]; fc_bind = (fun _ _ -> ());
             fc_edges = None;
           })
         prog.funcs)
  in
  let fcode_tbl = Hashtbl.create 16 in
  Array.iter (fun fc -> Hashtbl.replace fcode_tbl fc.fc_name fc) fcodes;
  let dispatch = Array.map (fun fc -> Hashtbl.find fcode_tbl fc.fc_name) fcodes in
  let func_addr = Hashtbl.create 16 in
  Array.iteri
    (fun i fc -> Hashtbl.replace func_addr fc.fc_name (func_addr_base + i))
    fcodes;
  let benv = Builtins.create_env mem in
  let t =
    {
      mem; dispatch; fcode_tbl; benv; out = benv.Builtins.out;
      sp = Memory.stack_top; steps = 0; max_steps; ring; edges;
    }
  in
  let pres =
    List.mapi
      (fun i f ->
        {
          p_func = f; p_fc = fcodes.(i); p_fl = Prep.float_regs f;
          p_locals = Hashtbl.create 16;
        })
      prog.funcs
  in
  let pre_of = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace pre_of p.p_func.Ir.fname p) pres;
  List.iter (fun p -> compile_signature t layout p) pres;
  List.iter
    (fun p -> compile_body t prog layout globals_addr strings func_addr pre_of p)
    pres;
  t

let run ?(args = []) (t : t) : Rt.result =
  Buffer.clear t.out;
  t.steps <- 0;
  t.sp <- Memory.stack_top;
  if not (Hashtbl.mem t.fcode_tbl "main") then error "program has no 'main'";
  let res =
    with_ring t.ring (fun () ->
        try
          call_generic t
            (Hashtbl.find t.fcode_tbl "main")
            (List.map (fun v -> AInt v) args)
        with Memory.Fault msg -> error "memory fault: %s" msg)
  in
  { exit_code = Rt.exit_code_of_retval res;
    output = Buffer.contents t.out;
    steps = t.steps }

let run_program ?args prog = run ?args (create prog)
