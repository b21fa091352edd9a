(** Differential-testing oracle for the transformation pipeline.

    Marmoset-style validation: a candidate layout transformation is only
    trusted after the original and transformed programs both pass the
    static {!Verify} pass, run to completion in the VM with byte-identical
    output and exit codes, and touch every surviving field the exact same
    number of times (dynamic tagged loads + stores, keyed by field name —
    stable across split/peel/rebuild renames). Synthetic fields such as
    the split link pointer are exempt from conservation; removed dead
    fields only exist on the original side and are skipped. *)

type failure =
  | Ill_formed_before of Verify.error list
      (** the input IR already fails {!Verify.program} *)
  | Ill_formed_after of Verify.error list
      (** the transformation produced malformed IR *)
  | Exit_code_differs of int * int  (** before, after *)
  | Output_differs of string * string  (** before, after *)
  | Access_count_differs of string * int * int
      (** field name, dynamic accesses before, after *)
  | Runtime_error_after of string
      (** the transformed program faulted at runtime *)

type report = {
  r_before : Slo_vm.Interp.result option;
  r_after : Slo_vm.Interp.result option;
  r_failures : failure list;  (** empty iff the transformation is trusted *)
}

val ok : report -> bool
val string_of_failure : failure -> string
val describe : report -> string

val diff :
  ?args:int list ->
  original:Ir.program ->
  transformed:Ir.program ->
  unit ->
  report
(** Compare two already-built programs: verification, exit code,
    output, and per-field access conservation. *)

val run :
  ?args:int list ->
  Ir.program ->
  Slo_core.Heuristics.plan list ->
  report
(** Apply [plans] to a copy of the program and {!diff} the two. *)

val run_source :
  ?args:int list ->
  string ->
  Slo_core.Heuristics.plan list ->
  report
(** {!run} on a compiled Mini-C source. *)

(** {1 Backend equivalence}

    The same differential idea turned on the VM itself: the compiled
    engine ({!Slo_vm.Compile}) is pinned to the tree-walking reference
    ({!Slo_vm.Interp}) — byte-identical output, identical step counts,
    an identical memory-event stream (every address and meta word, in
    order) and an identical cache-simulation outcome (L1/L2 hit and
    miss counters, per-level access counts, extra cycles) under the
    same hierarchy configuration. *)

type backend_mismatch =
  | B_exit of Slo_vm.Backend.t * int * int  (** candidate, walk, candidate *)
  | B_output of Slo_vm.Backend.t * string * string
  | B_counter of Slo_vm.Backend.t * string * int * int
      (** candidate, counter name, walk value, candidate value *)

val string_of_backend_mismatch : backend_mismatch -> string

val compare_backends :
  ?args:int list ->
  ?config:Slo_cachesim.Hierarchy.config ->
  Ir.program ->
  backend_mismatch list
(** Run [prog] once under the walk reference and once under each
    compiled backend ({!Slo_vm.Backend.all} minus [Walk]), each pushing
    its events into a ring, and report every observable difference
    (empty list = all backends agree). The ring streams are compared
    through an event count and an order-sensitive digest of every
    (address, meta) pair; the walker's stream is simulated one access
    at a time, the compiled engine's through the batched drain. Runtime
    errors propagate — all backends raise the same
    {!Slo_vm.Interp.Runtime_error} on the same programs. *)

val backends_agree :
  ?args:int list ->
  ?config:Slo_cachesim.Hierarchy.config ->
  Ir.program ->
  bool
(** [compare_backends] = []. *)
