(** A preallocated batch ring of packed memory-access events.

    The VM backends append events (address + packed metadata) into two
    flat int arrays — the only way memory events leave the VM; the
    consumer — {!Hierarchy.drain_quiet},
    {!Sampled.drain} or the profile collector — drains the whole batch
    in one call whenever the ring fills or the run finishes. Batching
    kills the per-access closure indirection that the measure phase
    was bound by: the push path is two array stores and a bounds
    check, with the metadata word a compile-time constant for each
    load/store instruction.

    The record is exposed so the compiled VM engine can inline the
    push sequence (cross-module calls are not inlined without
    flambda) and so drain loops can walk [addrs]/[metas] directly.
    Treat the fields as read-only outside [Slo_vm] (which inlines the
    push and resets a stale [len] at the start of a run) and the drain
    implementations. *)

type t = {
  mutable addrs : int array;
      (** byte address per event. Mutable so a sink may swap the
          buffer for a fresh one and keep the filled array (the
          pipelined {!Drainer} does); push sequences therefore re-read
          the field on every event. *)
  mutable metas : int array;  (** packed metadata per event, see {!meta} *)
  cap : int;
  mutable len : int;  (** events currently buffered: [0, len) *)
  mutable sink : t -> unit;
}

val default_cap : int
(** 8192 events (two 64 KB arrays). *)

val create : ?cap:int -> unit -> t
(** A ring with no consumer: events are dropped on flush until
    {!set_sink} installs one. Raises [Invalid_argument] if [cap <= 0]. *)

val set_sink : t -> (t -> unit) -> unit
(** Install the drain callback. It is invoked with the ring holding
    [len > 0] events in [addrs]/[metas] slots [0, len); after it
    returns, {!flush} resets [len] to 0 (the callback must not push). *)

val length : t -> int
(** Events currently buffered (the VM-side pending count a sampled
    bulk-advance check needs, see {!Sampled.bulk_ready}). *)

val flush : t -> unit
(** Drain buffered events through the sink (no-op when empty). *)

val push : t -> int -> int -> unit
(** [push t addr meta] appends one event, flushing first if the ring
    is full. The compiled VM inlines this sequence instead of calling
    it; the tree-walking interpreter calls it as is. *)

(** {1 Metadata packing}

    [meta] packs [(iid lsl 6) lor (size lsl 2) lor write lor is_float];
    sizes are 1..8 bytes (larger accesses are chunked by the VM), iids
    round-trip through an arithmetic shift so negative ids survive. *)

val meta : size:int -> write:bool -> is_float:bool -> iid:int -> int
val meta_size : int -> int
val meta_write : int -> bool
val meta_float : int -> bool
val meta_iid : int -> int
