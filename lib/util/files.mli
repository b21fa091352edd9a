(** Filesystem helpers shared by the daemon's persistent cache and the
    bench harnesses that write artifacts. *)

val mkdir_p : string -> unit
(** Create a directory and every missing parent (permissions 0o755),
    like [mkdir -p]; an existing path, or one a concurrent caller
    creates first, is left alone. Raises [Sys_error] if a component
    cannot be created. *)
