(** A pipelined ring consumer: batches drain on a dedicated domain
    while the VM keeps executing.

    {!sink} hands the ring's filled buffer pair to a worker domain and
    swaps fresh (or recycled) arrays into the ring; the worker drains
    batches strictly in FIFO order through the [drain] callback, so
    final cache state and counters are byte-equal to draining the same
    events serially — only the wall-clock overlap changes. A bounded
    pool of [depth] extra buffer pairs applies back-pressure when
    simulation falls behind execution.

    Only for consumers that never inspect simulation state while the
    VM runs (the exact-fidelity measure phase). Sampled bulk-advance
    checks need synchronous sinks. *)

type t

val create :
  ?depth:int -> drain:(int array -> int array -> int -> unit) -> unit -> t
(** Spawn the worker domain. [drain addrs metas n] consumes events
    [0, n); it runs on the worker, never concurrently with itself.
    [depth] (default 2) bounds the buffer pairs in flight beyond the
    ring's own. Raises [Invalid_argument] if [depth <= 0]. *)

val sink : t -> Ring.t -> unit
(** The function to install with {!Ring.set_sink}: enqueues the ring's
    current buffers for the worker and gives the ring a fresh pair.
    Blocks when [depth] batches are already in flight. *)

val join : t -> unit
(** Wait for every handed-off batch to finish draining and stop the
    worker domain. Call after the final {!Ring.flush}; the simulated
    state is only safe to read after [join] returns. Re-raises the
    first exception the [drain] callback threw, if any. *)
