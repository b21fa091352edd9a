(** The advisory tool of §3: annotated structure definitions combining
    static compiler analysis with runtime d-cache measurements.

    "IPA prints the annotated type layouts for all structure types, sorted
    by the hotness of the type... For each type, its name, total number of
    fields, and total size is shown... It follows the list of fields and
    their attributes in field declaration order. For each field, its
    relative hotness is shown in percent and as an absolute weight... We
    distinguish between read and write references to a field and indicate
    their relation with a bar... The d-cache miss count and average latency
    in cycles attributed to the field are shown next. Finally, the
    affinities to other fields are shown... Only uni-directional edges are
    printed."

    {!report} renders that format (Figure 2); {!vcg} emits a control file
    for the VCG graph visualisation tool with line thickness scaled by
    affinity weight. *)

type field_dcache = { fd_misses : int; fd_latency : int }
(** Sampled d-cache misses attributed to a field, and their summed
    latency in cycles. *)

type t

val build :
  Ir.program ->
  Legality.t ->
  Affinity.t ->
  decisions:Heuristics.decision list ->
  dcache:(int, Slo_profile.Feedback.dstats) Hashtbl.t option ->
  t
(** [dcache] maps instruction ids to matched PMU samples (from
    {!Slo_profile.Matching}); pass [None] for compilations without d-cache
    feedback — the report then omits the miss/latency lines. *)

val report : ?only:string list -> t -> string
(** The annotated layouts, hottest type first. [only] restricts to the
    named types. *)

val field_dcache : t -> string -> int -> field_dcache
(** Zeros when no feedback was supplied. *)

val vcg : t -> string -> string option
(** VCG control file for one type's affinity graph; [None] for unknown
    types. *)
