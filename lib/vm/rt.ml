(* Shared runtime vocabulary for the VM backends.

   Both execution engines — the tree-walking reference interpreter
   ({!Interp}) and the compiled engine ({!Compile}) — raise the
   same exception, exchange the same argument/return values and produce
   the same [result] record, so callers can treat them interchangeably
   and the differential harness can compare them field by field. *)

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type result = { exit_code : int; output : string; steps : int }

(* calling-convention values: how operands cross a call boundary *)
type argval = AInt of int | AFloat of float

type retval = RVoid | RInt of int | RFloat of float

let func_addr_base = 0x7f00_0000

let truncate_int size v =
  match size with
  | 1 ->
    let v = v land 0xff in
    if v >= 0x80 then v - 0x100 else v
  | 2 ->
    let v = v land 0xffff in
    if v >= 0x8000 then v - 0x10000 else v
  | 4 ->
    let v = v land 0xffffffff in
    if v >= 0x80000000 then v - 0x100000000 else v
  | _ -> v

let default_max_steps = 2_000_000_000

let exit_code_of_retval = function
  | RInt v -> v
  | RFloat v -> int_of_float v
  | RVoid -> 0

(* The memory-event side of a run, shared by both engines. Loads and
   stores push one event each; memset/memcpy traffic goes out as
   8-byte chunks, the largest access an event describes — the length
   is a runtime value, so the meta word is built per chunk. *)
module Ring = Slo_cachesim.Ring

let push_range rg addr len write iid =
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    let chunk = min 8 !remaining in
    Ring.push rg !pos (Ring.meta ~size:chunk ~write ~is_float:false ~iid);
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(* A run's ring lifecycle: drop the stale tail a previous run left when
   its drain failed, then flush this run's tail on every exit — faults
   included — so the consumer sees exactly the events that happened
   before the run ended. *)
let with_ring ring f =
  match ring with
  | None -> f ()
  | Some (rg : Ring.t) ->
    rg.len <- 0;
    Fun.protect ~finally:(fun () -> Ring.flush rg) f
