(** IR interpreter.

    Executes an {!Ir.program} over {!Memory}, producing program output and a
    step (instruction) count, and optionally sending out two event streams:

    - [ring], when given, receives one {!Slo_cachesim.Ring} event per data
      memory access (memset/memcpy traffic in 8-byte chunks), with the
      same meta words as the compiled engine — this is the address trace
      the cache simulator consumes (and through which the "PMU"
      attributes misses to instructions);
    - [edges], when given, counts every taken CFG edge and every function
      entry into an {!Edges} table — this is the paper's PBO
      instrumentation. Passing it models compiling with instrumentation:
      the run collects an edge profile.

    The interpreter is deterministic, including [rand] (a fixed-seed LCG),
    so profiles, cache statistics and benchmark outputs are reproducible. *)

exception Runtime_error of string

type result = Rt.result = {
  exit_code : int;
  output : string;
  steps : int;  (** instructions executed *)
}

type t

val create :
  ?ring:Slo_cachesim.Ring.t ->
  ?edges:Edges.t ->
  ?max_steps:int ->
  Ir.program ->
  t
(** Prepare a program for execution: lays out globals, interns strings,
    pre-compiles functions. Default [max_steps] is 2_000_000_000. *)

val run : ?args:int list -> t -> result
(** Execute [main]. [args] are passed as integer arguments (benchmarks use
    them to select the train vs. reference input scale).
    Raises {!Runtime_error} on faults (null dereference, missing [main],
    step-limit exceeded, ...). A [ring]'s stale tail is dropped before
    the run and its own tail flushed on every exit, faults included. *)

val run_program : ?args:int list -> Ir.program -> result
(** [create] + [run] without a ring or edge counters. *)
