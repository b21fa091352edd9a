(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                     -- everything, serially
     dune exec bench/main.exe -- table1 --jobs 8  -- one experiment, 8 workers
   Targets: table1 table2 table3 pool figure1 figure2 ablation overhead
            casestudies backends
   With no target, all but backends run. backends runs each entry's
   original and PBO-planned program at ref args on both VM engines,
   the tree-walking reference included, and exits 1 on any mismatch;
   the walker is the slow engine, so it runs only when named (CI runs
   it with --only 179.art).
   Options:
     --jobs N | -j N   worker domains for the parallel experiments
                       (table1, table3, pool); default 1
     --only NAME       restrict table1/table3/pool/backends to this
                       roster entry (repeatable)
     --fidelity F      cache-simulation fidelity: exact (default),
                       sampled or sampled:WINDOW,STRIDE — sampled runs
                       simulate windows in detail and warm the rest,
                       trading bounded counter accuracy for measure
                       throughput
     --out FILE        where to write the machine-readable results
                       (default _artifacts/BENCH.json)

   A run that includes table1, table3 or pool writes machine-readable
   per-row results (cycles, misses, speedup, per-phase timings, jobs,
   git rev) to the --out file; other runs write no file. The overhead
   target also prints each static-chain layer's milliseconds and
   megabytes allocated per round of the 14 programs. *)

module D = Slo_core.Driver
module A = Slo_core.Affinity
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module Adv = Slo_core.Advisor
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite
module Table = Slo_util.Table
module Stats = Slo_util.Stats
module Engine = Slo_bench.Engine

let say fmt = Printf.printf (fmt ^^ "\n%!")

let compile (e : Suite.entry) = fst (Engine.compile e)

(* ------------------------------------------------------------------ *)
(* Table 1: types and transformable types                              *)
(* ------------------------------------------------------------------ *)

let table1 run roster =
  say "== Table 1: Types and transformable types, with and without";
  say "==          CSTF/CSTT/ATKN (plus the real points-to column) ==";
  print_string (Engine.table1 run ~roster);
  say ""

(* ------------------------------------------------------------------ *)
(* Table 2: relative field hotness under the weighting schemes         *)
(* ------------------------------------------------------------------ *)

let field_hotness prog scheme fb =
  let bw = W.block_weights prog scheme ~feedback:fb in
  let aff = A.analyze prog bw in
  match A.graph aff "node" with
  | Some g -> A.relative_hotness g
  | None -> [||]

(* d-cache columns: the advise stage's per-field sampled miss counts /
   latency sums; the static scheme only shapes the advisor's affinity
   side, which these columns do not read *)
let field_dcache_metric prog fb ~latency =
  let adv = D.advise prog ~scheme:W.ISPBO ~feedback:(Some fb) in
  let decl = Structs.find prog.Ir.structs "node" in
  Stats.relative_percent
    (Array.init (Array.length decl.fields) (fun fi ->
         let dc = Adv.field_dcache adv "node" fi in
         float_of_int (if latency then dc.fd_latency else dc.fd_misses)))

let table2 () =
  say "== Table 2: Relative field hotness for mcf node_t under the";
  say "==          weighting schemes, with correlation r to PBO ==";
  let e = Suite.find "181.mcf" in
  let prog = compile e in
  say "(collecting mcf profiles: train, reference, uninstrumented...)";
  let fb_train, _ = Engine.profile e in
  let fb_ref, _ = Engine.profile ~args:e.ref_args e in
  let fb_noinstr, _ = Engine.profile ~instrument:false e in
  let columns =
    [ ("PBO", field_hotness prog W.PBO (Some fb_train));
      ("PPBO", field_hotness prog W.PPBO (Some fb_ref));
      ("SPBO", field_hotness prog W.SPBO None);
      ("ISPBO", field_hotness prog W.ISPBO None);
      ("ISPBO.NO", field_hotness prog W.ISPBO_NO None);
      ("ISPBO.W", field_hotness prog W.ISPBO_W None);
      ("DMISS", field_dcache_metric prog fb_train ~latency:false);
      ("DLAT", field_dcache_metric prog fb_train ~latency:true);
      ("DMISS.NO", field_dcache_metric prog fb_noinstr ~latency:false) ]
  in
  let decl = Structs.find prog.Ir.structs "node" in
  let t =
    Table.create
      (("Field", Table.Left)
      :: List.map (fun (n, _) -> (n, Table.Right)) columns)
  in
  Array.iteri
    (fun fi (f : Structs.field) ->
      Table.add_row t
        (f.name
        :: List.map
             (fun (_, col) ->
               if fi < Array.length col then Table.fpct col.(fi) else "-")
             columns))
    decl.fields;
  Table.add_sep t;
  let baseline = List.assoc "PBO" columns in
  let hottest = Stats.argmax baseline in
  (* a zero-variance column has no defined correlation: render "-"
     rather than a fake 0.000 *)
  let fcorr = function
    | Some r -> Printf.sprintf "%.3f" r
    | None -> "-"
  in
  let corr col = fcorr (Stats.correlation baseline col) in
  let corr' col = fcorr (Stats.correlation_excluding hottest baseline col) in
  Table.add_row t
    ("Correlation r" :: List.map (fun (_, col) -> corr col) columns);
  Table.add_row t
    ("Correlation r'" :: List.map (fun (_, col) -> corr' col) columns);
  print_string (Table.render t);
  say "(r' disregards the PBO-hottest field, %s; paper: potential)"
    decl.fields.(hottest).name;
  say ""

(* ------------------------------------------------------------------ *)
(* Table 3: transformed types and performance impact                   *)
(* ------------------------------------------------------------------ *)

let table3 run roster =
  say "== Table 3: Transformable/transformed types and performance ==";
  print_string (Engine.table3 run ~roster);
  say "";
  say "(performance = speedup (cycles_before/cycles_after - 1);";
  say " the simulator over-rewards splitting relative to Itanium hardware —";
  say " see EXPERIMENTS.md for the shape comparison)";
  say ""

(* ------------------------------------------------------------------ *)
(* pool: recursive-shape survey and index-linked pool measurement      *)
(* ------------------------------------------------------------------ *)

let pool run roster =
  say "== Pool: index-linked pools for shape-proven recursive types ==";
  print_string (Engine.pool_table run ~roster);
  say "";
  say "(one row per self-referential record; poolable ones are rewritten,";
  say " oracle-validated and measured, refuted ones show the witness)";
  say ""

(* ------------------------------------------------------------------ *)
(* backends: the tree-walking reference against the compiled engine    *)
(* ------------------------------------------------------------------ *)

(* set by a mismatch; the process exits 1 after the artifact is written *)
let engines_differ = ref false

(* each entry's original program and its PBO-planned one (Table 3's
   PBO row) at ref args under the Itanium hierarchy, through the
   differential oracle: output, steps, the event stream's count and
   digest, and every cache counter must agree *)
let backends roster =
  say "== VM engines: walk reference vs compiled, ref args ==";
  List.iter
    (fun (e : Suite.entry) ->
      let prog = compile e in
      let fb, _ = Engine.profile e in
      let d = D.decide prog ~scheme:W.PBO ~feedback:(Some fb) in
      let planned =
        D.transform_with_plans ~verify:true prog (H.plans d.decisions)
      in
      List.iter
        (fun (label, p) ->
          match Slo_suite.Oracle.compare_backends ~args:e.ref_args p with
          | [] -> say "  %-20s %-8s agree" e.name label
          | ms ->
            engines_differ := true;
            say "  %-20s %-8s MISMATCH" e.name label;
            List.iter
              (fun m ->
                say "    %s" (Slo_suite.Oracle.string_of_backend_mismatch m))
              ms)
        [ ("original", prog); ("PBO", planned) ])
    roster;
  say ""

(* ------------------------------------------------------------------ *)
(* Figure 1: layouts before/after splitting and peeling                *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  say "== Figure 1: an array of record types (a), after splitting (b),";
  say "==           and after peeling (c) ==";
  let src =
    "struct rec { long hot1; double cold1; long hot2; double cold2; };\n\
     struct rec *arr;\n\
     long n;\n\
     long use_hot() { long i; long s = 0;\n\
     for (i = 0; i < n; i++) { s = s + arr[i].hot1 + arr[i].hot2; }\n\
     return s; }\n\
     double use_cold() { long i; double s = 0.0;\n\
     for (i = 0; i < n; i = i + 64) { s = s + arr[i].cold1 + arr[i].cold2; }\n\
     return s; }\n\
     int main() { long it; long s = 0; double c = 0.0; n = 4096;\n\
     arr = (struct rec*)malloc(n * sizeof(struct rec));\n\
     for (it = 0; it < n; it++) { arr[it].hot1 = it; arr[it].hot2 = 2*it;\n\
     arr[it].cold1 = it * 0.5; arr[it].cold2 = it * 0.25; }\n\
     for (it = 0; it < 200; it++) { s = s + use_hot();\n\
     if (it % 50 == 0) { c = c + use_cold(); } }\n\
     printf(\"%ld %g\\n\", s, c); return 0; }\n"
  in
  let show prog label =
    say "--- %s ---" label;
    let layout = Layout.create prog.Ir.structs in
    List.iter
      (fun name -> print_string (Layout.describe layout name))
      (Structs.names prog.Ir.structs)
  in
  let prog = D.compile src in
  show prog "(a) original array of structures";
  let split_prog = Ircopy.copy_program prog in
  T.apply split_prog
    (T.Split { T.s_typ = "rec"; s_hot = [ 0; 2 ]; s_cold = [ 1; 3 ]; s_dead = [] });
  show split_prog "(b) after structure splitting (link pointer inserted)";
  let r1 = Slo_vm.Interp.run_program prog in
  let r2 = Slo_vm.Interp.run_program split_prog in
  say "outputs match after splitting: %b" (r1.output = r2.output);
  (* peeling needs the anchor-global form, which this program has *)
  let peel_prog = Ircopy.copy_program prog in
  T.apply peel_prog
    (T.Peel { T.p_typ = "rec"; p_live = [ 0; 1; 2; 3 ]; p_dead = [];
              p_globals = [ "arr" ] });
  show peel_prog "(c) after structure peeling (one array per field)";
  let r3 = Slo_vm.Interp.run_program peel_prog in
  say "outputs match after peeling:   %b" (r1.output = r3.output);
  say ""

(* ------------------------------------------------------------------ *)
(* Figure 2: the advisory tool's output                                *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  say "== Figure 2: the advisory tool's output (mcf node_t) ==";
  let e = Suite.find "181.mcf" in
  let prog = compile e in
  let fb_train, _ = Engine.profile e in
  let adv = D.advise prog ~scheme:W.PBO ~feedback:(Some fb_train) in
  print_string (Adv.report ~only:[ "node" ] adv);
  (match Adv.vcg adv "node" with
  | Some vcg ->
    let dir = "_artifacts" in
    Slo_util.Files.mkdir_p dir;
    let oc = open_out (Filename.concat dir "node.vcg") in
    output_string oc vcg;
    close_out oc;
    say "(VCG control file written to _artifacts/node.vcg)"
  | None -> ());
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation: the splitting observation of section 2.4                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  say "== Ablation (2.4): 'splitting out hot fields hurts' — forcing";
  say "==  time (paper: -9%%) and time+mark (paper: -35%%) out of node ==";
  let e = Suite.find "181.mcf" in
  let prog = compile e in
  let fb, _ = Engine.profile e in
  let decided = D.decide prog ~scheme:W.PBO ~feedback:(Some fb) in
  let base_plan =
    match
      List.find_map
        (fun (d : H.decision) ->
          match d.d_plan with
          | Some (H.Split s) when String.equal s.s_typ "node" -> Some s
          | _ -> None)
        decided.decisions
    with
    | Some s -> s
    | None -> failwith "expected a split plan for node"
  in
  let fidx name =
    match Structs.field_index prog.Ir.structs "node" name with
    | Some i -> i
    | None -> failwith ("no field " ^ name)
  in
  let before = D.measure ~args:e.train_args prog in
  let run_plan label (plan : T.split_spec) =
    let p = D.transform_with_plans prog [ H.Split plan ] in
    let after = D.measure ~args:e.train_args p in
    if before.m_result.output <> after.m_result.output then
      say "!! OUTPUT MISMATCH in ablation %s" label;
    say "  %-28s %+6.1f%%  (cycles %d -> %d)" label
      (D.speedup_pct ~before ~after)
      before.m_cycles after.m_cycles
  in
  run_plan "framework plan" base_plan;
  let force extra =
    {
      base_plan with
      T.s_hot = List.filter (fun f -> not (List.mem f extra)) base_plan.s_hot;
      s_cold = base_plan.s_cold @ extra;
    }
  in
  run_plan "also split out 'time'" (force [ fidx "time" ]);
  run_plan "also split out 'time'+'mark'" (force [ fidx "time"; fidx "mark" ]);
  say ""

(* ------------------------------------------------------------------ *)
(* Case studies of section 3.4                                         *)
(* ------------------------------------------------------------------ *)

let casestudies () =
  say "== Case studies (3.4): SPEC2006 sketches ==";
  (* (a) hot-field grouping guided by the advisor *)
  let e = Suite.find "spec2006.hotgroup" in
  let prog = compile e in
  let fb, _ = Engine.profile e in
  let decided = D.decide prog ~scheme:W.PBO ~feedback:(Some fb) in
  let g = Option.get (A.graph decided.affinity "bigobj") in
  let rel = A.relative_hotness g in
  let decl = Structs.find prog.Ir.structs "bigobj" in
  let hot =
    List.filter (fun fi -> rel.(fi) >= 50.0)
      (List.init (Array.length decl.fields) Fun.id)
  in
  say "  advisor-identified hot fields of bigobj: %s (paper: 4 hot fields)"
    (String.concat ", "
       (List.map (fun fi -> decl.fields.(fi).Structs.name) hot));
  say "  automatic transform: %s (blocked, as in the paper)"
    (match
       (List.find
          (fun (d : H.decision) -> String.equal d.d_typ "bigobj")
          decided.decisions)
       .d_plan
     with
    | Some _ -> "planned"
    | None -> "none");
  (* apply the advice by hand: group the hot four up front *)
  let cold =
    List.filter (fun fi -> not (List.mem fi hot))
      (List.init (Array.length decl.fields) Fun.id)
  in
  let regrouped = Ircopy.copy_program prog in
  T.apply regrouped
    (T.Rebuild { T.r_typ = "bigobj"; r_order = hot @ cold; r_dead = [] });
  let before = D.measure ~args:e.ref_args prog in
  let after = D.measure ~args:e.ref_args regrouped in
  if before.m_result.output <> after.m_result.output then
    say "!! OUTPUT MISMATCH in hot-group case study";
  say "  manual hot-field grouping: %+.1f%% (paper: +2.5%%)"
    (D.speedup_pct ~before ~after);
  (* (b) the two-field peeling case *)
  let e2 = Suite.find "spec2006.peel2" in
  let prog2 = compile e2 in
  let fb2, _ = Engine.profile e2 in
  let ev = D.evaluate ~args:e2.ref_args ~scheme:W.PBO ~feedback:(Some fb2) prog2 in
  say "  two-field record peeling:  %+.1f%% (paper: ~+40%%) [%s]"
    ev.e_speedup_pct
    (String.concat "; " (List.map H.plan_summary (H.plans ev.e_decisions)));
  say ""

(* ------------------------------------------------------------------ *)
(* Compile-time overhead (2.5)                                         *)
(* ------------------------------------------------------------------ *)

let timed = Slo_util.Clock.timed

(* The static chain's layers one by one: each runs [layer_rounds]
   rounds over the 14 programs (after one warm-up round), and reports
   the median round's milliseconds with the fastest and slowest rounds,
   and the bytes it allocates per round (minor and major heap). The
   front-end layers start from the source text, the rest from the
   compiled program. *)
let layer_rounds = 100

let layer_costs () =
  say "== Static chain per layer: one round = the 14 roster and case-study";
  say "==          programs, median of %d rounds ==" layer_rounds;
  let sources =
    List.map (fun (e : Suite.entry) -> e.source) (Suite.roster @ Suite.case_studies)
  in
  let progs = List.map (fun src -> D.compile src) sources in
  let t =
    Table.create
      [ ("Layer", Table.Left); ("ms/round", Table.Right);
        ("min-max[ms]", Table.Right); ("MB/round", Table.Right) ]
  in
  let layer name inputs f =
    let round () = List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs in
    round ();
    let ms = Array.make layer_rounds 0.0 in
    let bytes0 = Gc.allocated_bytes () in
    for k = 0 to layer_rounds - 1 do
      ms.(k) <- snd (timed round)
    done;
    let mb = (Gc.allocated_bytes () -. bytes0) /. float_of_int layer_rounds /. 1e6 in
    Array.sort compare ms;
    Table.add_row t
      [ name;
        Printf.sprintf "%.2f" ms.(layer_rounds / 2);
        Printf.sprintf "%.2f-%.2f" ms.(0) ms.(layer_rounds - 1);
        Printf.sprintf "%.2f" mb ]
  in
  layer "tokenize" sources Slo_minic.Lexer.tokenize;
  layer "parse (with tokenize)" sources Slo_minic.Parser.parse;
  layer "Verify" progs Verify.check;
  layer "Legality" progs Slo_core.Legality.analyze;
  layer "Pointsto" progs Slo_pointsto.Pointsto.analyze;
  layer "Deadstore" progs Deadstore.analyze;
  layer "Shape" progs Shape.analyze;
  print_string (Table.render t);
  say ""

let overhead () =
  say "== Compile-time overhead (2.5): layout analysis vs base compile ==";
  say "   (paper: FE ~2.5%%, IPA < 4%%, BE ~1%%)";
  let t =
    Table.create
      [ ("Benchmark", Table.Left); ("compile[ms]", Table.Right);
        ("FE+IPA[ms]", Table.Right); ("BE[ms]", Table.Right);
        ("FE+IPA ovh", Table.Right); ("BE ovh", Table.Right) ]
  in
  List.iter
    (fun (e : Suite.entry) ->
      let (prog : Ir.program), t_compile = timed (fun () -> D.compile e.source) in
      let d, t_analysis =
        timed (fun () -> D.decide prog ~scheme:W.ISPBO ~feedback:None)
      in
      let _, t_be =
        timed (fun () -> D.transform_with_plans prog (H.plans d.decisions))
      in
      Table.add_row t
        [ e.name;
          Printf.sprintf "%.1f" t_compile;
          Printf.sprintf "%.1f" t_analysis;
          Printf.sprintf "%.1f" t_be;
          Printf.sprintf "%.1f%%" (100.0 *. t_analysis /. t_compile);
          Printf.sprintf "%.1f%%" (100.0 *. t_be /. t_compile) ])
    Suite.roster;
  print_string (Table.render t);
  say "";
  layer_costs ()

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [TARGET...] [--jobs N|-j N] [--only NAME]\n\
     \       [--fidelity exact|sampled|sampled:W,S] [--out FILE]\n\
     targets: table1 table2 table3 pool figure1 figure2 ablation overhead\n\
     \         casestudies backends";
  exit 2

let () =
  let jobs = ref 1 in
  let only = ref [] in
  let fidelity = ref Slo_cachesim.Sampled.Exact in
  let out = ref (Filename.concat "_artifacts" "BENCH.json") in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n; parse rest
      | _ ->
        Printf.eprintf "bad --jobs value %S\n" v;
        exit 2)
    | [ "--jobs" ] | [ "-j" ] | [ "--only" ] | [ "--out" ] | [ "--fidelity" ]
      ->
      usage ()
    | "--fidelity" :: v :: rest -> (
      match Slo_cachesim.Sampled.fidelity_of_string v with
      | Ok f -> fidelity := f; parse rest
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
    | "--only" :: v :: rest -> only := v :: !only; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | t :: rest ->
      (match t with
      | "table1" | "table2" | "table3" | "pool" | "figure1" | "figure2"
      | "ablation" | "casestudies" | "overhead" | "backends" ->
        targets := t :: !targets
      | other ->
        Printf.eprintf "unknown target %S\n" other;
        usage ());
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roster =
    match !only with
    | [] -> Suite.roster
    | names ->
      List.iter
        (fun n ->
          if not (List.exists (fun (e : Suite.entry) -> e.name = n) Suite.roster)
          then begin
            Printf.eprintf "unknown --only benchmark %S\n" n;
            exit 2
          end)
        names;
      List.filter (fun (e : Suite.entry) -> List.mem e.name names) Suite.roster
  in
  let run = Engine.create_run ~fidelity:!fidelity ~jobs:!jobs () in
  let dispatch = function
    | "table1" -> table1 run roster
    | "table2" -> table2 ()
    | "table3" -> table3 run roster
    | "pool" -> pool run roster
    | "figure1" -> figure1 ()
    | "figure2" -> figure2 ()
    | "ablation" -> ablation ()
    | "casestudies" -> casestudies ()
    | "overhead" -> overhead ()
    | "backends" -> backends roster
    | _ -> assert false
  in
  let targets =
    match List.rev !targets with
    | [] ->
      [ "table1"; "table2"; "figure1"; "figure2"; "table3"; "pool";
        "ablation"; "casestudies"; "overhead" ]
    | ts -> ts
  in
  List.iter dispatch targets;
  (* only the row targets fill the artifact; any other run would replace
     an earlier one's rows with none *)
  if List.exists (fun t -> List.mem t [ "table1"; "table3"; "pool" ]) targets
  then begin
    Engine.write_json run ~path:!out;
    say "(machine-readable results written to %s)" !out
  end;
  Engine.finish run;
  if !engines_differ then exit 1
