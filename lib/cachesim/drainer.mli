(** The measured-run primitive: a ring whose batches drain either inline
    or on a dedicated domain while the VM keeps executing.

    Pipelined, the ring's sink hands its filled buffer pair to a worker
    domain and swaps fresh (or recycled) arrays into the ring; the
    worker drains batches strictly in FIFO order, so cache state,
    counters and PMU samples taken inside the drain are byte-equal to
    the inline drain — only the wall-clock overlap changes. A bounded
    pool of [depth] extra buffer pairs applies back-pressure when
    simulation falls behind execution. *)

val run :
  ?pipeline:bool ->
  ?cap:int ->
  ?depth:int ->
  drain:(int array -> int array -> int -> unit) ->
  (Ring.t -> 'a) ->
  'a
(** [run ~drain body] creates a ring of capacity [cap] (default
    {!Ring.default_cap}), runs [body ring], flushes the ring and
    returns the body's result once every event has been drained: the
    simulated state is safe to read when [run] returns. [drain addrs
    metas n] consumes events [0, n), never concurrently with itself.
    [pipeline] (default: on when the host has more than one core)
    drains on a worker domain; [depth] (default 2) bounds the buffer
    pairs in flight beyond the ring's own.

    The worker is joined on every path. If [body] raises, that
    exception propagates and any drain failure is dropped; if it
    returns, the first exception [drain] threw is re-raised as is.
    Raises [Invalid_argument] if [depth <= 0]. *)
