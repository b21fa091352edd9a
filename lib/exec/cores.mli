(** The process's one domain budget: the only place that reads the core
    count and the only place that spawns a compute domain.

    The host has {!total} cores. The calling domain already holds one,
    so [total - 1] are spares. A domain spawned here holds one spare
    while it runs, if one is free, and {!join} gives it back. A
    {!claim} holds a spare too, and when none is free it is owed the
    next one given back, ahead of any domain that wants one. The budget
    decides only who runs where: every caller computes the same result
    whether or not it got a spare. *)

val total : int
(** [Domain.recommended_domain_count ()], read once. *)

val free : unit -> int
(** Spares that nothing holds and no claim is owed, between [0] and
    [total - 1]. *)

type 'a t
(** A domain spawned through the budget. *)

val spawn : ?spare:bool -> (unit -> 'a) -> 'a t
(** [spawn f] runs [f] on a new domain, which holds a spare if one is
    free and runs anyway if none is. With [~spare:false] it takes none,
    and the caller accounts for its core with {!claim}. *)

val try_spawn : (unit -> 'a) -> 'a t option
(** [try_spawn f] runs [f] on a new domain holding a spare, or returns
    [None] when no spare is free, and the caller does the work
    itself. *)

val join : 'a t -> 'a
(** Wait for the domain and return [f]'s result, or re-raise its
    exception. The spare, if the domain held one, is given back on
    both paths. Join each domain once. *)

val claim : unit -> unit
(** Hold a spare for work that is about to run on a domain spawned with
    [~spare:false]: take a free one, or be owed the next one given
    back. Pair each [claim] with one {!release}. *)

val release : unit -> unit
(** Give back what a {!claim} holds, or cancel what it is owed. *)
