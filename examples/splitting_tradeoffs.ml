(* The section-2.4 observation: "the single most important criterion for
   splitting is hotness — hot fields need to remain in the hot section,
   regardless of affinity". Splitting out mcf's time (paper: -9%) and
   time+mark (paper: -35%) degrades performance.

     dune exec examples/splitting_tradeoffs.exe *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite

let () =
  let e = Suite.find "181.mcf" in
  let prog = D.compile e.source in
  let fb, _ = Slo_profile.Collect.collect ~args:e.train_args prog in
  let plan =
    match
      List.find_map
        (fun (d : H.decision) ->
          match d.d_plan with
          | Some (H.Split s) when s.s_typ = "node" -> Some s
          | _ -> None)
        (D.decide prog ~scheme:W.PBO ~feedback:(Some fb)).decisions
    with
    | Some s -> s
    | None -> failwith "expected the framework to split node"
  in
  let fidx name = Option.get (Structs.field_index prog.Ir.structs "node" name) in
  let args = e.train_args in
  let before = D.measure ~args prog in
  let try_plan label p =
    let after = D.measure ~args (D.transform_with_plans prog [ H.Split p ]) in
    assert (before.m_result.output = after.m_result.output);
    Printf.printf "%-36s %+7.1f%%\n%!" label (D.speedup_pct ~before ~after)
  in
  Printf.printf "%-36s %8s\n" "split configuration" "speedup";
  try_plan "framework plan (cold fields only)" plan;
  let also names =
    let extra = List.map fidx names in
    { plan with
      T.s_hot = List.filter (fun f -> not (List.mem f extra)) plan.s_hot;
      s_cold = plan.s_cold @ extra }
  in
  try_plan "also split out time (paper -9%)" (also [ "time" ]);
  try_plan "also time+mark (paper -35%)" (also [ "time"; "mark" ]);
  try_plan "also potential (pathological)" (also [ "potential" ])
