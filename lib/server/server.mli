(** The layout-advice daemon.

    A long-running server speaking {!Protocol} over a Unix-domain
    socket and, optionally, TCP ([listen]): clients send Mini-C source
    inline, the server answers with advisory reports ([advise]),
    before/after measurements ([bench]), diagnostics ([check]) or tuned
    plans ([tune]), keyed by a content-addressed cache hierarchy:

    - request bytes → serialized reply (the in-memory LRU). A reply is
      keyed by its request's {e normal form}: the request as the wire
      codec writes it, with the scheme in its canonical spelling and
      omitted at its default, the deadline dropped
      (except on [tune], where it is the search budget) and no id, so
      requests share a reply exactly when their normal forms are
      byte-equal. The id-stripped bytes a frame arrived with key the
      same reply when they differ from the normal form, so a warm
      repeat of byte-identical request bytes is served without parsing
      the request at all; the per-request ["id"] field is spliced
      around the reply.
    - the normal form → the same bytes on disk under [cache_dir] (the
      persistent layer, see {!Diskcache} — restarts and fleets sharing
      a directory start warm).

    Compiled programs are not cached: a miss compiles its source, and
    the LRU holds replies alone, so a stream of unique sources takes
    room for its replies only, not for programs ten times their size.

    Misses are scheduled onto a {!Slo_exec.Pool} of worker domains, and
    identical concurrent requests coalesce onto one in-flight
    computation, which answers every request waiting on it.

    Concurrency model: each listener's accept loop is replicated across
    [shards] domains; a connection is owned by the domain that accepted
    it, so frame reading and JSON parsing of different connections run
    in parallel. Per connection, one reader thread reads frames and
    serves fast-path replies inline, and one writer thread writes the
    replies; requests that go to the compute pool are answered by the
    job that computes them, or by the deadline clock, so {e replies may
    complete out of order} (correlated by request id) and a slow
    [bench] never blocks a cached [advise] behind it. The reader admits
    at most [window] requests in flight per connection — beyond that it
    stops reading, which is the protocol's backpressure.

    Robustness semantics:

    - {b deadlines}: a request's [deadline_ms] bounds the wait, not the
      computation — on expiry the client gets a [timeout] error, sent
      by one deadline clock on {!run}'s calling thread, while the job
      runs on and its result still enters the cache. Deadlines
      and latency histograms use the monotonic clock
      ({!Slo_util.Clock}); wall time is kept only for [started]/uptime.
    - {b structured errors}: Mini-C parse, typecheck, lowering/verifier
      and worker-crash failures each map to a distinct error code; a
      failed request never tears down the connection.
    - {b bounded, untrusted cache input}: a request whose normal form
      is longer than {!Protocol.max_frame_bytes} is refused with
      [bad_request]; a disk record is parsed and re-serialized by the
      codec before it is served or kept in memory.
    - {b admission control}: when the compute backlog reaches the high
      watermark the server sheds [bench] misses with an [overloaded]
      reply (cached [bench] and all [advise]/[check] are still served)
      until the backlog falls to the low watermark.
    - {b connection limit}: accepts beyond [max_conns] get an
      [overloaded] reply and an immediate close.
    - {b graceful drain}: on SIGTERM or a [shutdown] request the
      listeners close first, in-flight requests run to completion and
      their replies are delivered, idle connections are then closed,
      the pool is joined and the socket path unlinked before {!run}
      returns. *)

type config = {
  socket_path : string;  (** Unix-domain listener (always on) *)
  listen : (string * int) option;
      (** additional TCP listener, [(host, port)]; [host] may be an
          IPv4 literal, ["localhost"] or a resolvable name *)
  jobs : int;            (** worker domains for the compute pool *)
  shards : int;          (** accept/reader domains per listener *)
  window : int;          (** per-connection in-flight request cap *)
  cache_mb : int;        (** reply LRU budget, in MiB *)
  cache_dir : string option;
      (** persistent reply cache directory; [None] disables the layer *)
  max_conns : int;       (** concurrent connections before [overloaded] *)
  high_watermark : int;  (** queued jobs that start shedding; 0 = auto *)
  low_watermark : int;   (** queued jobs that stop shedding; 0 = auto *)
  handle_sigterm : bool; (** install the SIGTERM drain handler *)
  log : string -> unit;  (** progress lines; [ignore] to silence *)
}

val default_config : socket_path:string -> config
(** [listen = None], [jobs = Slo_exec.Pool.default_jobs ()],
    [shards = max 1 (min 4 (Slo_exec.Cores.total - 1))] (accept shards
    do I/O, so they spawn their own domains outside the budget),
    [window = 32], [cache_mb = 64], [cache_dir = None],
    [max_conns = 64], watermarks auto ([high = max 8 (4*jobs)],
    [low = high/2]), [handle_sigterm = true], [log = ignore]. *)

val run : config -> unit
(** Bind, serve until drained, clean up, return. Raises
    [Invalid_argument] on a non-positive [jobs]/[shards]/[window]/
    [cache_mb]/[max_conns] or [low_watermark > high_watermark];
    [Unix.Unix_error] if a listener cannot be bound. SIGPIPE is set to
    ignore (a server cannot survive otherwise). Safe to call from a
    background thread (set [handle_sigterm = false] to leave process
    signal dispositions alone — the in-process tests and the load
    generator's self-spawn mode do this). *)
