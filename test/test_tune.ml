(* The layout autotuner.

   The load-bearing properties: the candidate closure is deterministic
   and never contains the empty plan, the pad transform preserves
   program semantics while growing the struct, the search never
   returns a plan scoring worse than the heuristic incumbent, results
   are byte-identical at --jobs 1 and --jobs N and at any seed, and a
   zero budget still yields the heuristic plan (anytime semantics)
   rather than an error. Across the roster, the heuristic plan is a
   candidate and no two candidates are the same program. *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module Tune = Slo_tune.Tune
module W = Slo_profile.Weights
module C = Slo_core.Codec
module Suite = Slo_suite.Suite

let programs = Suite.roster @ Suite.case_studies

(* hot1/hot2 are read every iteration of the hot loop; cold1/cold2 are
   read once at the end, so they are live (not dead) but cold — the
   shape that makes split candidates legal and enumerable. *)
let hot_cold_src tag =
  Printf.sprintf
    "struct s%s { long hot1; long cold1; long hot2; long cold2; };\n\
     struct s%s *arr;\n\
     long n;\n\
     int main() { long it; long i; long s = 0; long c = 0; n = 64;\n\
     arr = (struct s%s*)malloc(n * sizeof(struct s%s));\n\
     for (it = 0; it < n; it++) { arr[it].hot1 = it; arr[it].hot2 = 2*it;\n\
     arr[it].cold1 = 3*it; arr[it].cold2 = 5*it; }\n\
     for (it = 0; it < 10; it++) {\n\
     for (i = 0; i < n; i++) { s = s + arr[i].hot1 + arr[i].hot2; } }\n\
     for (i = 0; i < n; i++) { c = c + arr[i].cold1 + arr[i].cold2; }\n\
     printf(\"%%ld %%ld\\n\", s, c); return 0; }\n"
    tag tag tag tag

let cfg () = Tune.default_config ~scheme:W.ISPBO ~feedback:None

(* ---------------- enumeration ---------------- *)

let enum_closure () =
  let prog = D.compile (hot_cold_src "en") in
  let cands = Tune.enumerate prog (cfg ()) in
  Alcotest.(check bool) "non-empty closure" true (cands <> []);
  Alcotest.(check bool) "no empty candidate" true
    (List.for_all (fun c -> c <> []) cands);
  let again = Tune.enumerate prog (cfg ()) in
  Alcotest.(check bool) "deterministic" true (cands = again);
  let has_split =
    List.exists
      (List.exists (function H.Split _ -> true | _ -> false))
      cands
  and has_pad =
    List.exists
      (List.exists (function H.Pad _ -> true | _ -> false))
      cands
  in
  Alcotest.(check bool) "contains split candidates" true has_split;
  Alcotest.(check bool) "contains pad candidates" true has_pad

let enum_truncates () =
  let prog = D.compile (hot_cold_src "tr") in
  let c = { (cfg ()) with Tune.max_candidates = 3 } in
  let cands = Tune.enumerate prog c in
  Alcotest.(check int) "capped" 3 (List.length cands);
  let full = Tune.enumerate prog (cfg ()) in
  (* the cap takes a prefix of the canonical order *)
  Alcotest.(check bool) "prefix of the full closure" true
    (cands = List.filteri (fun i _ -> i < 3) full)

(* the heuristic decision is one point of the tuner's space *)
let enum_contains_heuristic () =
  List.iter
    (fun (e : Suite.entry) ->
      let prog = D.compile e.source in
      let h =
        H.plans (D.decide prog ~scheme:W.ISPBO ~feedback:None).decisions
      in
      let all =
        Tune.enumerate prog { (cfg ()) with Tune.max_candidates = max_int }
      in
      if h <> [] && not (List.mem h all) then
        Alcotest.failf "%s: heuristic plan %s is not a candidate" e.name
          (String.concat " " (List.map C.plan_to_string h)))
    programs

(* no two candidates, and no candidate and the untransformed program,
   print the same IR once registers and blocks are renumbered: the
   tuner never scores one program twice *)
let enum_distinct_programs () =
  let twins =
    List.concat_map
      (fun (e : Suite.entry) ->
        let prog = D.compile e.source in
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun plans ->
            let text =
              Snapshot.canonical
                (Ir.string_of_program
                   (D.transform_with_plans ~verify:true prog plans))
            in
            let name = String.concat " " (List.map C.plan_to_string plans) in
            match Hashtbl.find_opt seen text with
            | Some other ->
              Some (Printf.sprintf "%s: [%s] = [%s]" e.name other name)
            | None ->
              Hashtbl.replace seen text name;
              None)
          ([] :: Tune.enumerate prog (cfg ())))
      programs
  in
  Alcotest.(check (list string)) "one program per candidate" [] twins

(* ---------------- pad transform ---------------- *)

let pad_semantics () =
  let prog = D.compile (hot_cold_src "pd") in
  let before = D.measure ~pipeline:false prog in
  let prog' =
    D.transform_with_plans ~verify:true prog
      [ H.Pad { T.pd_typ = "spd"; pd_bytes = 24 } ]
  in
  let after = D.measure ~pipeline:false prog' in
  Alcotest.(check string) "output preserved"
    before.D.m_result.Slo_vm.Interp.output
    after.D.m_result.Slo_vm.Interp.output;
  let size p =
    Layout.struct_size (Layout.create p.Ir.structs) "spd"
  in
  Alcotest.(check int) "struct grew by the pad" (size prog + 24) (size prog');
  (* padding again replaces the pad field instead of stacking *)
  let prog'' =
    D.transform_with_plans ~verify:true prog'
      [ H.Pad { T.pd_typ = "spd"; pd_bytes = 8 } ]
  in
  Alcotest.(check int) "re-pad replaces" (size prog + 8) (size prog'')

let pad_rejects () =
  let prog = D.compile (hot_cold_src "pr") in
  Alcotest.check_raises "non-positive bytes"
    (Invalid_argument "Transform.pad: 0 pad bytes (need > 0)") (fun () ->
      T.apply prog (T.Pad { T.pd_typ = "spr"; pd_bytes = 0 }));
  Alcotest.check_raises "unknown struct"
    (Invalid_argument "Transform.pad: unknown struct nosuch") (fun () ->
      T.apply prog (T.Pad { T.pd_typ = "nosuch"; pd_bytes = 8 }))

(* ---------------- search ---------------- *)

let search_never_worse () =
  let prog = D.compile (hot_cold_src "nw") in
  let r = Tune.search prog (cfg ()) in
  Alcotest.(check bool) "found <= heuristic" true
    (r.Tune.t_found_cycles <= r.t_heuristic_cycles);
  Alcotest.(check bool) "improved iff strict" true
    (r.t_improved = (r.t_found_cycles < r.t_heuristic_cycles));
  Alcotest.(check bool) "complete without budget" true r.t_complete;
  Alcotest.(check bool) "explored everything" true
    (r.t_explored = r.t_total)

let search_deterministic_jobs () =
  let prog = D.compile (hot_cold_src "dj") in
  let r1 = Tune.search prog { (cfg ()) with Tune.jobs = 1 } in
  let r2 = Tune.search prog { (cfg ()) with Tune.jobs = 2 } in
  Alcotest.(check bool) "same winner" true (r1.Tune.t_found = r2.Tune.t_found);
  Alcotest.(check int) "same cycles" r1.t_found_cycles r2.t_found_cycles;
  Alcotest.(check int) "same heuristic cycles" r1.t_heuristic_cycles
    r2.t_heuristic_cycles;
  (* ties break by enumeration index, not by exploration order *)
  let r3 = Tune.search prog { (cfg ()) with Tune.seed = 7 } in
  Alcotest.(check bool) "same winner at another seed" true
    (r1.Tune.t_found = r3.Tune.t_found)

let search_anytime_zero_budget () =
  let prog = D.compile (hot_cold_src "zb") in
  let r = Tune.search prog { (cfg ()) with Tune.budget_ms = Some 0.0 } in
  Alcotest.(check bool) "falls back to the heuristic" true
    (r.Tune.t_found = r.t_heuristic);
  Alcotest.(check bool) "incomplete" false r.t_complete;
  Alcotest.(check bool) "still never worse" true
    (r.t_found_cycles <= r.t_heuristic_cycles)

let search_validates () =
  let prog = D.compile (hot_cold_src "va") in
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> ignore (Tune.search prog { (cfg ()) with Tune.jobs = 0 }));
  bad (fun () -> ignore (Tune.search prog { (cfg ()) with Tune.beam = 0 }));
  bad (fun () ->
      ignore (Tune.search prog { (cfg ()) with Tune.max_candidates = 0 }))

let () =
  Alcotest.run "tune"
    [
      ( "enumerate",
        [
          Alcotest.test_case "closure" `Quick enum_closure;
          Alcotest.test_case "truncates" `Quick enum_truncates;
          Alcotest.test_case "heuristic is a candidate" `Quick
            enum_contains_heuristic;
          Alcotest.test_case "distinct programs" `Quick
            enum_distinct_programs;
        ] );
      ( "pad",
        [
          Alcotest.test_case "semantics" `Quick pad_semantics;
          Alcotest.test_case "rejects" `Quick pad_rejects;
        ] );
      ( "search",
        [
          Alcotest.test_case "never worse" `Quick search_never_worse;
          Alcotest.test_case "jobs determinism" `Quick
            search_deterministic_jobs;
          Alcotest.test_case "zero budget anytime" `Quick
            search_anytime_zero_budget;
          Alcotest.test_case "validates config" `Quick search_validates;
        ] );
    ]
