(* The advisory tool on 181.mcf (paper section 3, Figure 2).

   Collects a profile with PMU d-cache sampling, runs the analysis, and
   prints annotated structure definitions plus a VCG affinity graph.

     dune exec examples/mcf_advisor.exe *)

module D = Slo_core.Driver
module Adv = Slo_core.Advisor
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite

let () =
  let e = Suite.find "181.mcf" in
  let prog = D.compile e.source in
  print_endline "(running instrumented mcf to collect edge + d-cache profile...)";
  let fb, stats = Slo_profile.Collect.collect ~args:e.train_args prog in
  Printf.printf "(collected %d PMU d-cache miss events)\n\n" stats.pmu_events;
  let adv = D.advise prog ~scheme:W.PBO ~feedback:(Some fb) in
  (* the full report covers every type, hottest first; print the two the
     paper talks about *)
  print_string (Adv.report ~only:[ "node"; "arc" ] adv);
  match Adv.vcg adv "node" with
  | Some vcg ->
    print_endline "--- VCG control file for node's affinity graph ---";
    print_string vcg
  | None -> ()
