(** A byte-budgeted LRU map, the backing store for the advice server's
    content-addressed reply cache.

    Entries carry an explicit byte size supplied at insertion time (the
    cache does not try to guess how big a value is); once the running
    total would exceed the capacity, least-recently-used entries are
    evicted until the new entry fits. A {!find} hit promotes the entry
    to most-recently-used. An entry bigger than the whole capacity is
    refused outright rather than evicting everything else first.

    Not thread-safe: callers serialise access themselves (the advice
    server holds its state mutex around every cache operation). *)

type ('k, 'v) t

val create : capacity_bytes:int -> ('k, 'v) t
(** [create ~capacity_bytes] makes an empty cache holding at most
    [capacity_bytes] worth of entries. Raises [Invalid_argument] if the
    capacity is not positive. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit promotes the entry to most-recently-used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test {e without} promotion. *)

val add : ('k, 'v) t -> 'k -> 'v -> bytes:int -> bool
(** [add t k v ~bytes] inserts (or replaces) the binding, evicting from
    the LRU end until [v] fits, and returns [true]. An entry with
    [bytes > capacity_bytes] is refused: nothing is evicted, nothing is
    stored, and the result is [false]. Raises [Invalid_argument] on
    negative [bytes]. *)

val remove : ('k, 'v) t -> 'k -> unit

val length : ('k, 'v) t -> int
(** Number of live entries. *)

val bytes : ('k, 'v) t -> int
(** Current sum of entry sizes. *)

val capacity_bytes : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries evicted over the cache's lifetime (replacements excluded). *)

val promotions : ('k, 'v) t -> int
(** {!find} hits that actually moved the entry to the front of the
    recency list. A hit on the entry that is already most-recently-used
    leaves the list untouched and does not count (the order probe the
    unit tests use to pin the promote fast path). *)

val keys_mru : ('k, 'v) t -> 'k list
(** Keys from most- to least-recently used (tests and the server's
    [stats] reply use this order to report cache contents). *)
