(** Byte-addressed flat memory for the VM.

    One growable byte buffer models the whole address space. The address map
    mirrors a simple process image so that the cache simulator sees
    realistic address streams:

    {v
      0x0000_0000 .. 0x0000_0fff   unmapped (null page, traps)
      0x0000_1000 .. globals_end   globals + interned string literals
      0x0020_0000 .. 0x0040_0000   stack (grows downward from the top)
      0x0040_0000 .. heap_end      heap (bump allocated)
    v}

    Loads sign-extend (char/short/int are signed in Mini-C); sub-word stores
    truncate. All accesses are little-endian. *)

exception Fault of string
(** Raised on null-page or out-of-range accesses. *)

type t = private {
  mutable buf : Bytes.t;
      (** the whole address space, byte [a] at index [a]. Exposed so
          the compiled engine can read and write in-range accesses
          without a call (see {!Compile}); every bounds failure, growth
          and fault still goes through the functions below. The buffer
          is replaced by a larger copy when an access or allocation
          grows the image, so readers must re-read the field on every
          access rather than keep the [Bytes.t]. *)
  mutable globals_next : int;
  mutable heap_next : int;
  allocs : (int, int) Hashtbl.t;
  freed : (int, unit) Hashtbl.t;
}

val create : unit -> t

val globals_base : int
val stack_top : int
val stack_limit : int

val alloc_global : t -> size:int -> align:int -> int
(** Carve space in the globals region (only before first heap alloc). *)

val alloc_heap : t -> size:int -> zero:bool -> int
(** Bump-allocate [size] bytes, 16-byte aligned. *)

val free_heap : t -> int -> unit
(** Record the block as freed (storage is not recycled; the VM is a
    simulator, not a production allocator). Faults on addresses that were
    never allocated. *)

val alloc_size : t -> int -> int option
(** Size originally allocated at this base address, for [realloc]. *)

val load_int : t -> addr:int -> size:int -> int
val store_int : t -> addr:int -> size:int -> int -> unit
val load_f32 : t -> addr:int -> float
val store_f32 : t -> addr:int -> float -> unit
val load_f64 : t -> addr:int -> float
val store_f64 : t -> addr:int -> float -> unit

val blit : t -> dst:int -> src:int -> len:int -> unit
val fill : t -> dst:int -> byte:int -> len:int -> unit

val read_string : t -> int -> string
(** Read a NUL-terminated string. *)

val write_string : t -> int -> string -> unit
(** Write bytes plus a terminating NUL. *)
