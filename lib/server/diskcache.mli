(** Persistent content-addressed reply cache.

    A directory of records mapping the server's reply-cache key (a
    request's normal-form bytes, at most {!Protocol.max_frame_bytes}
    long) to a serialized reply, layered {e under} the in-memory LRU: a daemon restarted on
    the same [--cache-dir] — or a fleet of daemons sharing one — starts
    warm instead of recompiling its whole working set.

    Crash safety and integrity:

    - {b writes} go to a temporary file in the cache directory and are
      [rename(2)]d into place, so a reader never observes a partial
      record and a crash mid-write leaves at most a stray temp file;
    - {b loads} verify a magic/version header, the full key (digests
      only pick the file name) and an MD5 of the payload; any mismatch
      — truncation, corruption, a record from a future format — reads
      as a miss, never as wrong data.

    Records are keyed by [md5(key)] and fanned out over 256 two-hex-char
    subdirectories. The store is append-only from the daemon's point of
    view (no eviction); an operator reclaims space by deleting files,
    which the verify-on-load discipline makes safe at any moment.

    Thread-safe: [find]/[store] may race freely across threads and
    domains; last writer wins, byte-for-byte identically. *)

type t

val create : dir:string -> t
(** Create (mkdir -p, permissions 0o755) or open the cache directory.
    Raises [Sys_error]/[Unix.Unix_error] if it cannot be created. *)

val dir : t -> string

val find : t -> key:string -> string option
(** The stored payload, or [None] on absence {e or} any verification
    failure (a corrupt record is also unlinked so it is not re-verified
    on every miss). *)

val store : t -> key:string -> string -> unit
(** Persist [key -> payload] atomically (write-temp-then-rename).
    I/O errors are swallowed: the disk layer is an optimization, and a
    full disk must not fail the request whose reply it was persisting. *)
