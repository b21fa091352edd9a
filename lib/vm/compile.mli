(** The compiled execution engine: closure-threaded code with
    superblocks.

    Same observable semantics, event streams and determinism
    guarantees as {!Interp} (see that module's documentation): each
    [Ir.instr] is pre-resolved into an OCaml closure at {!create} time.
    Common instruction forms — int and float arithmetic, compares,
    movs, conditional branches and every int/f32/f64 load and store —
    compile to one closure that reads and writes the register banks
    directly, and a load or store touches the memory buffer directly
    once a bounds check passes (anything outside the buffer or in the
    null page takes the {!Memory} call, so growth and faults are
    unchanged). Straight-line jump chains, address producers with the
    accesses through them, and block tails with their terminators are
    fused. The differential tests pin its output, step counts and
    event stream to the tree-walker's. *)

exception Runtime_error of string

type result = Rt.result = {
  exit_code : int;
  output : string;
  steps : int;  (** instructions executed *)
}

type t

val create :
  ?edges:Edges.t ->
  ?bulk_hook:(int -> bool) ->
  ?ring:Slo_cachesim.Ring.t ->
  ?max_steps:int ->
  Ir.program ->
  t
(** Compile a program to closures: lays out globals, interns strings,
    pre-resolves every instruction. Default [max_steps] is
    2_000_000_000.

    [ring] receives the run's memory events: every load, store and
    memset/memcpy chunk appends one packed event, the push inlined into
    the compiled closure, and the ring's sink drains whole batches. The
    event stream a drain sees is identical, event for event, to the
    one {!Interp} pushes (the differential oracle pins this). {!run}
    drops a stale tail before the run and flushes its own tail — also
    on abnormal termination — so the sink always sees exactly the
    run's stream.

    [bulk_hook n] is consulted before running a block whose event count
    [n] is statically known (no calls, no memset/memcpy): returning
    [true] means the event consumer has accounted for all [n] accesses
    itself and the block runs with no per-access events at all. The
    sampled cache simulator uses this to retire a block's accesses in
    O(1) while fast-forwarding. Only meaningful together with [ring];
    the event values the consumer would have received (addresses,
    instruction ids) are not reconstructed — the consumer must not need
    them. Events already buffered precede the [n] bulk accesses in
    stream order: the consumer must flush-then-advance (see
    {!Slo_cachesim.Sampled.bulk_ready}). On a
    run that terminates abnormally mid-block the bulk consumer may have
    been charged up to one block's trailing accesses that never
    executed (same granularity caveat as the step limit below).

    [edges] turns on edge profiling: each terminator and call prologue
    increments a counter slot of the table, resolved at compile time.

    Each straight-line chain of blocks linked by unconditional jumps
    runs as one superblock: one array sweep, one step-limit check and
    one [bulk_hook] consultation per chain. Under [edges] a fused chain
    counts its interior jump edges once per run, so the edge counts
    equal the unfused ones. Step totals and step-limit failures are
    unchanged on all programs; the limit check is chain-wise (see the
    caveat on {!run}). *)

val run : ?args:int list -> t -> result
(** Execute [main]. Raises {!Runtime_error} exactly where {!Interp.run}
    does (same messages), with one caveat: the step limit is enforced
    per superblock rather than per instruction, which raises on exactly the same
    programs but may execute up to a superblock's worth of trailing instructions less
    before doing so. *)

val run_program : ?args:int list -> Ir.program -> result
(** [create] + [run] without a ring, edge counters or bulk hook. *)
