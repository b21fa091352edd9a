(* A preallocated ring of packed memory-access events.

   The VM backends append one event per executed load/store (and per
   memset/memcpy chunk) into two flat int arrays — no allocation, no
   closure call on the push path — and a consumer drains the whole
   batch in a single call when the ring fills (or at end of run). It
   is the only way memory events leave the VM, and it is cheap enough
   for the measure phase's hot path: the push is two unsafe stores
   plus a bounds check, and the event metadata of a compiled
   load/store is a compile-time constant.

   Event format: [addrs.(i)] is the byte address; [metas.(i)] packs

     bit 0      is_float
     bit 1      write
     bits 2-5   size in bytes (1..8 — chunked accesses never exceed 8)
     bits 6-..  iid (instruction id; may be negative, [asr] recovers it)

   The fields are laid out so that a compiled instruction's whole meta
   word folds to one immediate. Consumers decode with the [meta_*]
   accessors below.

   The record is deliberately transparent: [Compile] inlines the push
   sequence into its load/store closures (without flambda a
   cross-module [Ring.push] call would cost a call per event),
   [Slo_vm] resets a stale [len] at the start of a run, and drain
   loops read [addrs]/[metas]/[len] directly. Everyone else should
   treat the fields as private. *)

type t = {
  mutable addrs : int array;
  mutable metas : int array;
  cap : int;
  mutable len : int;
  mutable sink : t -> unit;
      (* consumes events [0, len); [flush] resets [len] afterwards. A
         sink may swap [addrs]/[metas] for fresh arrays of the same
         length and keep the originals (the pipelined drainer does) —
         which is why the buffers are mutable fields and push sequences
         must re-read them on every event *)
}

let default_cap = 8192

let create ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Ring.create: cap must be positive";
  {
    addrs = Array.make cap 0;
    metas = Array.make cap 0;
    cap;
    len = 0;
    sink = (fun _ -> ());
  }

let set_sink t sink = t.sink <- sink
let length t = t.len

let flush t =
  if t.len > 0 then begin
    t.sink t;
    t.len <- 0
  end

(* the out-of-line push, for callers outside the compiled hot path
   (the tree-walking interpreter, memset/memcpy chunks) *)
let push t addr meta =
  if t.len = t.cap then flush t;
  let i = t.len in
  Array.unsafe_set t.addrs i addr;
  Array.unsafe_set t.metas i meta;
  t.len <- i + 1

let meta ~size ~write ~is_float ~iid =
  (iid lsl 6)
  lor (size lsl 2)
  lor (if write then 2 else 0)
  lor (if is_float then 1 else 0)

let meta_size m = (m lsr 2) land 15
let meta_write m = m land 2 <> 0
let meta_float m = m land 1 <> 0
let meta_iid m = m asr 6
