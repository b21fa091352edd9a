(** Benchmark-side spans around calls into the library's layers.

    Spans live in growable in-memory arrays and are written out only
    when the run ends. A span opened while another is open on the main
    track becomes its child, so each layer's {e self} time — its
    duration minus the time its children cover — is known. Leaf spans
    recorded from other threads ({!record}) go on their own track.

    With recording off, {!span} costs one branch. *)

type t

val create : enabled:bool -> t

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f], recording a main-track span named [name]
    around it when [t] is enabled (also when [f] raises). Not
    thread-safe: call it from the main thread only. *)

val record : t -> tid:int -> string -> start_ns:int -> stop_ns:int -> unit
(** A leaf span on track [tid] with explicit {!Slo_util.Clock}
    timestamps: on a track > 0 for work timed on another thread, on
    track 0 for a phase the library timed itself, which then counts as a
    child of the innermost open span. Callers serialize concurrent
    [record]s on one [t]. No-op when disabled. *)

val add_work : t -> string -> int -> unit
(** [add_work t name n] adds [n] units of work (VM steps) to the
    counter [name]. No-op when disabled. *)

val work : t -> string -> int
(** The counter [name]; 0 if nothing was added. *)

val count : t -> string -> int
(** Spans recorded under [name]. *)

val self_ms : t -> string -> float
(** Summed self time of the spans named [name], in milliseconds. *)

val layers : t -> string list
(** Every span name recorded, sorted. *)

val write_chrome : t list -> pid:int -> string -> unit
(** Write the spans of every [t] as one Chrome trace-event JSON file ([ph = "X"]
    complete events, timestamps in microseconds of the monotonic clock,
    so traces of processes on one host line up). *)

val merge_chrome : into:string -> string list -> unit
(** Concatenate the events of files written by {!write_chrome} into
    one trace file. *)
