(** A fixed-size domain pool with a work queue and futures.

    OCaml 5 gives us true shared-memory parallelism via [Domain]; this
    module wraps it in the shape the evaluation harness needs: submit
    independent jobs, await their results {e in submission order} so that
    rendered output is deterministic regardless of worker count, and turn
    a crashed job into a structured {!error} value instead of killing the
    run or hanging the queue. A wait has no deadline: a caller that needs
    one keeps its own clock, as the advice daemon does, whose jobs
    deliver their results to their requests themselves and whose
    futures nobody awaits.

    Jobs must not mutate shared state without their own locking: they
    may read data structures owned by the submitting domain (the bench
    engine shares compiled, read-only IR this way). *)

type error = {
  err_exn : string;       (** [Printexc.to_string] of the exception *)
  err_backtrace : string; (** raw backtrace, possibly empty *)
}
(** What is left of an exception that escaped a job. *)

type t
(** A pool of worker domains. *)

type 'a future
(** The pending result of a submitted job. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([1 <= jobs <= 256];
    raises [Invalid_argument] otherwise). The submitter blocks while
    they run, so the first busy worker stands in for it, and each
    other busy worker holds a {!Cores.claim} on a spare core for the
    length of its job: [k] busy workers hold [k - 1] spares, and an
    idle pool holds none. A pool with [jobs = 1] runs every job
    on a single worker in submission order, which makes it the serial
    reference that [--jobs n] output is compared against. *)

val default_jobs : unit -> int
(** [Cores.total - 1] (the submitting domain keeps one), at least 1. *)

val jobs : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a job. Raises [Invalid_argument] on a pool that has been
    {!shutdown}. Exceptions raised by the job are caught in the worker
    and surface as [Error] from {!await}; the worker itself survives and
    moves on to the next job. *)

val await : 'a future -> ('a, error) result
(** Block until the job has run. May be called from any domain, any
    number of times. *)

val shutdown : t -> unit
(** Drain the queue, then join all worker domains. Jobs already submitted
    are completed; further {!submit}s are rejected. Idempotent. *)
