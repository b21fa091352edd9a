(* Integration over the benchmark roster: every program compiles, runs, and
   survives its planned transformation with identical output. Scales are
   tiny so the whole suite stays fast; the bench harness runs the real
   sizes. *)

module D = Slo_core.Driver
module L = Slo_core.Legality
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite

let tiny_args (e : Suite.entry) = List.map (fun a -> max 1 (a / 8)) e.train_args

let compile_runs (e : Suite.entry) () =
  let prog = D.compile e.source in
  let res = Slo_vm.Interp.run_program ~args:(tiny_args e) prog in
  Alcotest.(check int) "exit 0" 0 res.exit_code;
  Alcotest.(check bool) "prints something" true (String.length res.output > 0)

let legality_shape (e : Suite.entry) () =
  let prog = D.compile e.source in
  let leg = L.analyze prog in
  let total = List.length (L.types leg) in
  let strict = L.legal_count leg in
  let relax = L.legal_count ~relax:true leg in
  Alcotest.(check bool) "has types" true (total > 0);
  Alcotest.(check bool) "strict <= relax" true (strict <= relax);
  match e.paper with
  | None -> ()
  | Some p ->
    (* our models reproduce the paper's shape: within 15 points of the
       published percentages *)
    let pct x = 100.0 *. float_of_int x /. float_of_int total in
    Alcotest.(check bool)
      (Printf.sprintf "legal%% near paper (%.1f vs %.1f)" (pct strict)
         p.p_legal_pct)
      true
      (Float.abs (pct strict -. p.p_legal_pct) <= 15.0);
    Alcotest.(check bool)
      (Printf.sprintf "relax%% near paper (%.1f vs %.1f)" (pct relax)
         p.p_relax_pct)
      true
      (Float.abs (pct relax -. p.p_relax_pct) <= 16.0)

(* the program ISPBO's plans make of [prog] *)
let ispbo_transformed prog =
  let leg, aff = D.analyze prog ~scheme:W.ISPBO ~feedback:None in
  D.transform_with_plans prog (H.plans (H.decide prog leg aff ~scheme:W.ISPBO))

let transform_preserves (e : Suite.entry) () =
  let prog = D.compile e.source in
  let args = tiny_args e in
  let before = Slo_vm.Interp.run_program ~args prog in
  let after = Slo_vm.Interp.run_program ~args (ispbo_transformed prog) in
  Alcotest.(check string) "output preserved" before.output after.output

(* the compiled engine is pinned to the tree-walking reference on every
   roster program, original and ISPBO-transformed: identical output,
   steps, event stream and cache counters under the same (small)
   hierarchy *)
let backends_agree (e : Suite.entry) () =
  let prog = D.compile e.source in
  List.iter
    (fun (label, p) ->
      match
        Slo_suite.Oracle.compare_backends ~args:(tiny_args e)
          ~config:Slo_cachesim.Hierarchy.small p
      with
      | [] -> ()
      | ms ->
        Alcotest.fail
          (String.concat "\n"
             (label
             :: List.map Slo_suite.Oracle.string_of_backend_mismatch ms)))
    [ ("original", prog); ("ISPBO-transformed", ispbo_transformed prog) ]

let expected_transforms () =
  (* the paper's headline transformations happen *)
  let check_plan name expected =
    let e = Suite.find name in
    let prog = D.compile e.source in
    let fb, _ = Slo_profile.Collect.collect ~args:(tiny_args e) prog in
    let leg, aff = D.analyze prog ~scheme:W.PBO ~feedback:(Some fb) in
    let ds = H.decide prog leg aff ~scheme:W.PBO in
    let summary =
      String.concat "; "
        (List.filter_map (fun (d : H.decision) ->
             Option.map H.plan_summary d.d_plan)
           ds)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s plans %s (got: %s)" name expected summary)
      true
      (Astring.String.is_infix ~affix:expected summary)
  in
  check_plan "179.art" "peel f1_neuron";
  check_plan "spec2006.peel2" "peel pairrec"

let mcf_split_under_pbo () =
  let e = Suite.find "181.mcf" in
  let prog = D.compile e.source in
  let fb, _ = Slo_profile.Collect.collect ~args:e.train_args prog in
  let leg, aff = D.analyze prog ~scheme:W.PBO ~feedback:(Some fb) in
  let ds = H.decide prog leg aff ~scheme:W.PBO in
  match
    List.find_map
      (fun (d : H.decision) ->
        match d.d_plan with
        | Some (H.Split s) when String.equal s.s_typ "node" -> Some s
        | _ -> None)
      ds
  with
  | None -> Alcotest.fail "mcf node should split under PBO"
  | Some sp ->
    let name i =
      (Structs.find prog.Ir.structs "node").fields.(i).Structs.name
    in
    let cold_names = List.map name sp.s_cold in
    let dead_names = List.map name sp.s_dead in
    Alcotest.(check bool) "ident dead" true (List.mem "ident" dead_names);
    List.iter
      (fun f ->
        Alcotest.(check bool) (f ^ " split out") true
          (List.mem f cold_names))
      [ "number"; "sibling_prev"; "firstout"; "firstin"; "flow" ];
    List.iter
      (fun f ->
        Alcotest.(check bool) (f ^ " stays hot") true
          (List.mem (Option.get (Structs.field_index prog.Ir.structs "node" f))
             sp.s_hot))
      [ "potential"; "pred" ]

let table1_averages () =
  (* the roster-wide averages land near the paper's 20.9% / 65.7% *)
  let totals = ref 0.0 and strict = ref 0.0 and relax = ref 0.0 in
  List.iter
    (fun (e : Suite.entry) ->
      let leg = L.analyze (D.compile e.source) in
      let n = float_of_int (List.length (L.types leg)) in
      totals := !totals +. 1.0;
      strict := !strict +. (100.0 *. float_of_int (L.legal_count leg) /. n);
      relax :=
        !relax +. (100.0 *. float_of_int (L.legal_count ~relax:true leg) /. n))
    Suite.roster;
  let avg_s = !strict /. !totals and avg_r = !relax /. !totals in
  Alcotest.(check bool)
    (Printf.sprintf "avg legal %.1f ~ 20.9" avg_s)
    true
    (Float.abs (avg_s -. Suite.paper_avg_legal_pct) < 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "avg relax %.1f ~ 65.7" avg_r)
    true
    (Float.abs (avg_r -. Suite.paper_avg_relax_pct) < 8.0)

let () =
  let per_entry mk =
    List.map
      (fun (e : Suite.entry) -> Alcotest.test_case e.name `Quick (mk e))
      (Suite.roster @ Suite.case_studies)
  in
  Alcotest.run "suite"
    [
      ("compile+run", per_entry compile_runs);
      ("legality shape", per_entry legality_shape);
      ("transform preserves output", per_entry transform_preserves);
      ("backends agree", per_entry backends_agree);
      ( "paper expectations",
        [
          Alcotest.test_case "art and peel2 peel" `Quick expected_transforms;
          Alcotest.test_case "mcf splits" `Quick mcf_split_under_pbo;
          Alcotest.test_case "table1 averages" `Quick table1_averages;
        ] );
    ]
