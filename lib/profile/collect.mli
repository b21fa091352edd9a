(** The PBO collection phase: run an instrumented program and produce a
    feedback file.

    Mirrors §3.1: "the application is instrumented and run with training
    input sets to produce feedback files ... the instrumented binaries
    additionally invoke the performance analysis tool to gather sampling
    data from the PMU, resulting in a feedback file that contains both edge
    counts and sampling results for data cache events."

    The VM's edge-counter table ({!Slo_vm.Edges}) is the
    instrumentation; the cache hierarchy's batch drain with an attached
    {!Slo_cachesim.Pmu} is the PMU — the exact measure phase's event
    path. When [instrument] is false, only PMU samples are collected
    (that is the DMISS.NO configuration) and a different sampling phase
    models the skid difference. *)

type run_stats = {
  result : Slo_vm.Interp.result;
  hierarchy : Slo_cachesim.Hierarchy.t;
  pmu_events : int;
}

val collect :
  ?args:int list ->
  ?instrument:bool ->
  ?config:Slo_cachesim.Hierarchy.config ->
  ?sample_period:int ->
  ?pipeline:bool ->
  Ir.program ->
  Feedback.t * run_stats
(** Defaults: [instrument = true], Itanium-like hierarchy, period 251.
    The run is on the compiled VM engine ({!Slo_vm.Backend.default});
    the tree-walker counts the same edges and drives the same
    memory-event stream (pinned by [test_vm] and the differential
    oracle), so it would collect the same feedback. The feedback digests
    are pinned per roster program by [test_profile].

    [pipeline] drains the ring, PMU sampling included, on a worker
    domain ([true]) or inline ([false]) via {!Slo_cachesim.Drainer.run};
    omitted, the run pipelines once {!Slo_exec.Cores} has a spare core
    free. The results are byte-equal either way. *)
