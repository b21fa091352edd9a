(** Reading BENCH.json artifacts, for [compare.exe] and [perfgate.exe]. *)

val die : ('a, unit, string, 'b) format4 -> 'a
(** Print the message on stderr and exit 2, the usage and parse error
    code of both tools. *)

val read_file : string -> Slo_util.Json.t
(** The parsed artifact at a path; {!die}s when it cannot be opened or
    parsed. *)

val rows : Slo_util.Json.t -> Slo_util.Json.t list
(** The artifact's [results] rows; {!die}s when the list is missing. *)

val str_member : string -> Slo_util.Json.t -> string
(** A string field, or ["?"] when absent or not a string. *)

val num_member : string -> Slo_util.Json.t -> float option
(** An integer or float field as a float. *)
