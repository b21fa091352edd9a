(* tunebench — the roster through the layout autotuner.

   Usage:
     dune exec bench/tunebench.exe -- [--only NAME]... [--scheme S]
       [--jobs N] [--verify-jobs N] [--budget-ms MS] [--beam N] [--seed N]
       [--check-improved K] [--out PATH]

   For every roster entry the tuner searches the candidate-plan closure
   (split points x field orders x peel x padding) with the sampled
   cachesim as cost oracle and the heuristic decision as the incumbent,
   then writes one row per entry to _artifacts/TUNE.json: heuristic vs
   found cycles, the plans in codec form, and the search statistics.

   Gates (exit 1):
   - an entry whose found plan scores worse than the heuristic one —
     structurally impossible unless the tuner's promotion logic broke;
   - with --check-improved K, fewer than K entries strictly improved;
   - with --verify-jobs N, any entry whose complete search result at
     --jobs N differs from the main run's (the determinism contract:
     same seed, any worker count, byte-identical winner).

   Entries run serially; each search parallelizes internally across
   --jobs worker domains. *)

module Suite = Slo_suite.Suite
module Engine = Slo_bench.Engine
module Tune = Slo_tune.Tune
module Codec = Slo_core.Codec
module W = Slo_profile.Weights
module Json = Slo_util.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type row = {
  row_name : string;
  row_result : (Tune.result, string) result;
}

let delta_pct (r : Tune.result) =
  if r.t_found_cycles > 0 then
    (float_of_int r.t_heuristic_cycles /. float_of_int r.t_found_cycles -. 1.0)
    *. 100.0
  else 0.0

let json_of_row row =
  let base = [ ("benchmark", Json.String row.row_name) ] in
  match row.row_result with
  | Error e -> Json.Obj (base @ [ ("error", Json.String e) ])
  | Ok r ->
    let plans ps = Json.List (List.map (fun p -> Json.String (Codec.plan_to_string p)) ps) in
    Json.Obj
      (base
      @ [
          ("baseline_cycles", Json.Int r.Tune.t_baseline_cycles);
          ("heuristic_cycles", Json.Int r.t_heuristic_cycles);
          ("found_cycles", Json.Int r.t_found_cycles);
          ("improved", Json.Bool r.t_improved);
          ("delta_pct", Json.Float (delta_pct r));
          ("explored", Json.Int r.t_explored);
          ("rejected", Json.Int r.t_rejected);
          ("total", Json.Int r.t_total);
          ("complete", Json.Bool r.t_complete);
          ("wall_ms", Json.Float r.t_wall_ms);
          ("heuristic_plans", plans r.t_heuristic);
          ("found_plans", plans r.t_found);
        ])

let () =
  let only = ref [] and scheme_name = ref "pbo" and jobs = ref 1 in
  let verify_jobs = ref 0 and budget_ms = ref None and beam = ref 4 in
  let seed = ref 0 and check_improved = ref (-1) in
  let max_candidates = ref 96 and out = ref "_artifacts/TUNE.json" in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest -> only := v :: !only; parse rest
    | "--scheme" :: v :: rest -> scheme_name := v; parse rest
    | "--jobs" :: v :: rest ->
      jobs := (match int_of_string_opt v with
        | Some n when n >= 1 -> n | _ -> die "bad --jobs %S" v);
      parse rest
    | "--verify-jobs" :: v :: rest ->
      verify_jobs := (match int_of_string_opt v with
        | Some n when n >= 0 -> n | _ -> die "bad --verify-jobs %S" v);
      parse rest
    | "--budget-ms" :: v :: rest ->
      budget_ms := (match float_of_string_opt v with
        | Some f when f >= 0.0 -> Some f | _ -> die "bad --budget-ms %S" v);
      parse rest
    | "--beam" :: v :: rest ->
      beam := (match int_of_string_opt v with
        | Some n when n >= 1 -> n | _ -> die "bad --beam %S" v);
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with
        | Some n -> n | None -> die "bad --seed %S" v);
      parse rest
    | "--check-improved" :: v :: rest ->
      check_improved := (match int_of_string_opt v with
        | Some n when n >= 0 -> n | _ -> die "bad --check-improved %S" v);
      parse rest
    | "--max-candidates" :: v :: rest ->
      max_candidates := (match int_of_string_opt v with
        | Some n when n >= 1 -> n | _ -> die "bad --max-candidates %S" v);
      parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scheme =
    match Codec.scheme_of_string !scheme_name with
    | Ok s -> s
    | Error e -> die "%s" e
  in
  let roster =
    match !only with
    | [] -> Suite.roster
    | names ->
      List.map
        (fun n ->
          match Suite.find n with
          | e -> e
          | exception Not_found -> die "unknown roster entry %S" n)
        (List.rev names)
  in
  let t0 = Slo_util.Clock.now_ns () in
  let search_entry ~jobs (e : Suite.entry) =
    let prog, _ = Engine.compile e in
    let feedback =
      if W.needs_profile scheme then Some (fst (Engine.profile e))
      else None
    in
    (* score on the train input, like the paper's profile-guided flow:
       the ref runs are an order of magnitude longer, and the point is
       plan choice, not ref-input measurement *)
    let cfg =
      { (Tune.default_config ~scheme ~feedback) with
        Tune.args = e.train_args; jobs; budget_ms = !budget_ms;
        beam = !beam; seed = !seed;
        max_candidates = !max_candidates }
    in
    Tune.search prog cfg
  in
  let failed = ref false in
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        Printf.printf "tune %-14s ...%!" e.name;
        match search_entry ~jobs:!jobs e with
        | exception exn ->
          Printf.printf " ERROR %s\n%!" (Printexc.to_string exn);
          failed := true;
          { row_name = e.name; row_result = Error (Printexc.to_string exn) }
        | r ->
          Printf.printf
            " heuristic %8d -> found %8d cycles (%+.2f%%)%s %d/%d cands \
             %.0fms\n%!"
            r.Tune.t_heuristic_cycles r.t_found_cycles (delta_pct r)
            (if r.t_improved then " IMPROVED" else "")
            r.t_explored r.t_total r.t_wall_ms;
          if r.t_found_cycles > r.t_heuristic_cycles then begin
            Printf.printf "FAIL %s: found plan scores worse than the \
                           heuristic one\n" e.name;
            failed := true
          end;
          (if !verify_jobs > 0 && !verify_jobs <> !jobs then begin
             let r2 = search_entry ~jobs:!verify_jobs e in
             (* the determinism contract binds complete searches; a
                budget-truncated pair is only comparable on the
                never-worse invariant *)
             if r.t_complete && r2.Tune.t_complete
                && (r2.t_found <> r.Tune.t_found
                   || r2.t_found_cycles <> r.t_found_cycles
                   || r2.t_heuristic_cycles <> r.t_heuristic_cycles)
             then begin
               Printf.printf
                 "FAIL %s: --jobs %d and --jobs %d disagree (%d vs %d \
                  cycles)\n"
                 e.name !jobs !verify_jobs r.t_found_cycles
                 r2.t_found_cycles;
               failed := true
             end
           end);
          { row_name = e.name; row_result = Ok r })
      roster
  in
  let improved =
    List.length
      (List.filter
         (fun row ->
           match row.row_result with Ok r -> r.Tune.t_improved | Error _ -> false)
         rows)
  in
  Printf.printf "%d/%d entries strictly improved over the heuristic\n"
    improved (List.length rows);
  if !check_improved >= 0 && improved < !check_improved then begin
    Printf.printf "FAIL fewer than %d entries improved\n" !check_improved;
    failed := true
  end;
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("tool", Json.String "slo-tunebench");
        ("git_rev", Json.String (Engine.git_rev ()));
        ("scheme", Json.String (Codec.scheme_name scheme));
        ("jobs", Json.Int !jobs);
        ("beam", Json.Int !beam);
        ("seed", Json.Int !seed);
        ( "budget_ms",
          match !budget_ms with None -> Json.Null | Some f -> Json.Float f );
        ("improved_entries", Json.Int improved);
        ( "wall_clock_s",
          Json.Float (Slo_util.Clock.elapsed_ms ~since:t0 /. 1000.0) );
        ("results", Json.List (List.map json_of_row rows));
      ]
  in
  Slo_util.Files.mkdir_p (Filename.dirname !out);
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  exit (if !failed then 1 else 0)
