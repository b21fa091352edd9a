(* Profile infrastructure: feedback files, collection, CFG matching,
   static estimation (SPBO), inter-procedural scaling (ISPBO). *)

module Feedback = Slo_profile.Feedback
module Collect = Slo_profile.Collect
module Matching = Slo_profile.Matching
module Staticfreq = Slo_profile.Staticfreq
module Ipscale = Slo_profile.Ipscale
module Weights = Slo_profile.Weights

let lower = Lower.lower_source
let feq = Alcotest.float 1e-6

(* ------------------------- feedback ------------------------- *)

let feedback_roundtrip () =
  let fb = Feedback.create () in
  Feedback.add_entry fb "main" 1;
  Feedback.add_edge fb "main" { line = 1; col = 2; ord = 0 }
    { line = 3; col = 4; ord = 1 } 42;
  Feedback.add_dcache fb "main" { line = 5; col = 6; ord = 0 }
    { misses = 7; latency = 700 };
  let fb2 = Feedback.of_string (Feedback.to_string fb) in
  Alcotest.(check int) "entry" 1 (Feedback.entry_count fb2 "main");
  Alcotest.(check int) "edge" 42
    (Feedback.edge_count fb2 "main" { line = 1; col = 2; ord = 0 }
       { line = 3; col = 4; ord = 1 });
  (match Feedback.dcache_stats fb2 "main" { line = 5; col = 6; ord = 0 } with
  | Some { misses = 7; latency = 700 } -> ()
  | _ -> Alcotest.fail "dcache lost");
  Alcotest.(check bool) "bad input rejected" true
    (match Feedback.of_string "garbage line" with
    | exception Failure _ -> true
    | _ -> false)

let feedback_accumulates () =
  let fb = Feedback.create () in
  let s = { Feedback.line = 1; col = 1; ord = 0 } in
  Feedback.add_edge fb "f" s s 5;
  Feedback.add_edge fb "f" s s 6;
  Alcotest.(check int) "summed" 11 (Feedback.edge_count fb "f" s s)

let signatures_disambiguate () =
  (* two blocks on the same source position get distinct ordinals *)
  let prog = lower "int main(int a) { if (a) { a = 1; } else { a = 2; } return a; }" in
  let f = Option.get (Ir.find_func prog "main") in
  let sigs = Feedback.block_sigs f in
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) sigs [] in
  let uniq = List.sort_uniq compare all in
  Alcotest.(check int) "signatures unique" (List.length all)
    (List.length uniq)

(* ------------------------- collect + match ------------------------- *)

let loop10 =
  "int work(int k) { int j; int s = 0;\n\
   for (j = 0; j < k; j++) { s = s + j; } return s; }\n\
   int main() { int i; int t = 0;\n\
   for (i = 0; i < 10; i++) { t = t + work(5); }\n\
   return t % 256; }"

let collect_and_match () =
  let prog = lower loop10 in
  let fb, stats = Collect.collect prog in
  Alcotest.(check int) "main entered once" 1 (Feedback.entry_count fb "main");
  Alcotest.(check int) "work entered 10x" 10 (Feedback.entry_count fb "work");
  Alcotest.(check bool) "program ran" true (stats.result.steps > 0);
  let m = Matching.apply prog fb in
  Alcotest.(check int) "all edges matched" 0 m.unmatched_edges;
  let wc = Option.get (Matching.func_counts m "work") in
  (* work's loop header: (1 entry + 5 back edges) x 10 calls *)
  let max_block = Array.fold_left max 0.0 wc.block in
  Alcotest.check feq "hottest block = 60" 60.0 max_block;
  let mc = Option.get (Matching.func_counts m "main") in
  Alcotest.check feq "main entry weight" 1.0 mc.entry

let match_robust_to_perturbation () =
  (* matching against a different program only matches what exists *)
  let prog1 = lower loop10 in
  let fb, _ = Collect.collect prog1 in
  let prog2 =
    lower
      "int main() { int i; int t = 0;\n\
       for (i = 0; i < 3; i++) { t = t + i; }\n\
       return t; }"
  in
  let m = Matching.apply prog2 fb in
  (* nothing crashes; unmatched edges are only dropped, counts stay sane *)
  let mc = Option.get (Matching.func_counts m "main") in
  Alcotest.(check bool) "counts non-negative" true
    (Array.for_all (fun c -> c >= 0.0) mc.block)

let pbo_matches_truth () =
  (* PBO block weights equal real execution counts *)
  let prog = lower loop10 in
  let fb, _ = Collect.collect prog in
  let bw = Weights.block_weights prog Weights.PBO ~feedback:(Some fb) in
  (* the truth: block execution counts of a walker run, each the sum
     of the block's incoming edge counters (function entry included) *)
  let edges = Slo_vm.Edges.create prog in
  ignore (Slo_vm.Interp.run (Slo_vm.Interp.create ~edges prog));
  let work = Hashtbl.find bw "work" in
  let r = Option.get (Slo_vm.Edges.row edges "work") in
  for dst = 0 to r.nblocks - 1 do
    let n = ref 0 in
    for src = -1 to r.nblocks - 1 do
      n := !n + r.counts.(Slo_vm.Edges.slot r ~src ~dst)
    done;
    if !n > 0 then
      Alcotest.check feq (Printf.sprintf "block %d" dst) (float_of_int !n)
        work.(dst)
  done

(* ------------------------- feedback identity ------------------------- *)

(* A collection run as one string: the feedback file, the PMU event
   count, every hierarchy counter, the steps and the output. *)
let collect_canon ~instrument ~pipeline (e : Slo_suite.Suite.entry) =
  let prog = Slo_core.Driver.compile e.source in
  let args = List.map (fun a -> max 1 (a / 8)) e.train_args in
  let fb, (rs : Collect.run_stats) =
    Collect.collect ~args ~instrument ~pipeline prog
  in
  let module H = Slo_cachesim.Hierarchy in
  let module C = Slo_cachesim.Cache in
  let h = rs.hierarchy in
  let a, b, c = H.level_counts h in
  Printf.sprintf
    "%s\npmu=%d l1=%d/%d l2=%d/%d acc=%d lv=%d,%d,%d extra=%d steps=%d out=%s"
    (Feedback.to_string fb) rs.pmu_events (C.hits (H.l1 h)) (C.misses (H.l1 h))
    (C.hits (H.l2 h)) (C.misses (H.l2 h)) (H.accesses h) a b c
    (H.extra_cycles h) rs.result.steps
    (Digest.to_hex (Digest.string rs.result.output))

(* MD5 of [collect_canon] per roster entry at tiny sizes (instrumented,
   then not), as the per-access collector produced them before edge
   counting and PMU sampling moved into the VM and the drain *)
let seed_digests =
  [
    ("181.mcf", "065a13f3856cbaf5802aadc1af436ab4",
     "776e8bd219711475c579c8ef3f3dc55d");
    ("179.art", "2cccf6cfcf6b8b8bc6e908cb30dc8c5e",
     "3b5ae4632633175c5cec2c4e6cc80b66");
    ("milc", "653fec73c1a237eecea8651b63a87a20",
     "480cabb11c5124762e7376fe8e3bb772");
    ("cactusADM", "b19138459f94c84bf4a7d67936619899",
     "5e4124d080a8b18b9bb1efaa3d0c3ef5");
    ("gobmk", "780e4295373868c4a114820042b72e70",
     "35412f707b2a683bef9b19889f272d3c");
    ("povray", "df30160cd2d9952e8068c12b4aab8ec9",
     "ff4419d21edf98b482a53d3479a10ade");
    ("calculix", "70a1ecd75cf10dad1f955e07b3b421b2",
     "5935f4a9e6e1c497e5fbbdbde5eb5f7f");
    ("h264avc", "c2871da41eb3a5285936c52e2d97cc36",
     "9c2b0bb2bd07a7349e6cf026406331df");
    ("moldyn", "15a514b4553c69ae6a29cd0acfbe162a",
     "e51d56e72f4c42a9eb4ffb8979f65f46");
    ("lucille", "0f3201d4244e23387b0605f6f35a9ccf",
     "f15c73b925f14a009ecfbf348b51cd97");
    ("sphinx", "3276100a219a06179d6269da7f0fc11c",
     "474619c6b98009dca66bc3dda171b998");
    ("ssearch", "2c4653353457e28a10332bd5c24463fa",
     "7c639a4f4f1cca519bb46080fb296888");
    ("spec2006.hotgroup", "babb5088fec98a07fc7398a5218d02f1",
     "63532422fc31dda9eb9fca00b3aa4e85");
    ("spec2006.peel2", "6d5dbe56e6493466699b1047c2906fb5",
     "5837a93a53cb92797f9f8645585fb706");
  ]

(* the compiled engine collects the run the per-access collector
   collected, draining both inline and on the worker domain, on every
   host *)
let feedback_identity (name, instrumented, plain) () =
  let e = Slo_suite.Suite.find name in
  let digest s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun pipeline ->
      List.iter
        (fun (instrument, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "instrument=%b pipeline=%b = old collector"
               instrument pipeline)
            expected
            (digest (collect_canon ~instrument ~pipeline e)))
        [ (true, instrumented); (false, plain) ])
    [ false; true ]

(* -------------------- faults through the drain -------------------- *)

(* enough traffic to hand batches to the drain, then a null-page load *)
let faulting_src =
  "struct s { long a; long b; };\n\
   int main(int n) { long *q; struct s *p; int i; long t; t = 0;\n\
   q = (long*)malloc(512 * sizeof(long));\n\
   for (i = 0; i < n; i++) { q[i % 512] = i; t = t + q[(i * 7) % 512]; }\n\
   p = (struct s*)0; return (int)(p->b + t); }"

let fault_of f =
  match f () with
  | exception Slo_vm.Backend.Runtime_error m -> m
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected a memory fault"

let faulting_runs =
  let prog = lazy (Slo_core.Driver.compile faulting_src) in
  [
    ( "measure",
      fun ~pipeline ->
        ignore
          (Slo_core.Driver.measure ~args:[ 20000 ] ~pipeline (Lazy.force prog))
    );
    ( "collect",
      fun ~pipeline ->
        ignore (Collect.collect ~args:[ 20000 ] ~pipeline (Lazy.force prog)) );
  ]

(* a VM fault surfaces as itself from the pipelined drain, not wrapped
   in the worker's join *)
let fault_surfaces_unwrapped () =
  List.iter
    (fun (name, run) ->
      let serial = fault_of (fun () -> run ~pipeline:false) in
      Alcotest.(check string) (name ^ " fault")
        "memory fault: null-page access at 0x8" serial;
      Alcotest.(check string) (name ^ " pipelined = inline") serial
        (fault_of (fun () -> run ~pipeline:true)))
    faulting_runs

(* every faulting pipelined run joins its worker domain: more runs than
   the runtime's cap on live domains (128) still finish *)
let faulting_runs_join_workers () =
  for i = 1 to 200 do
    let _, run = List.nth faulting_runs (i mod 2) in
    ignore (fault_of (fun () -> run ~pipeline:true))
  done

(* ------------------------- SPBO ------------------------- *)

let spbo_loop_freq () =
  let prog = lower "int main(int n) { int i; int s = 0;\n\
                    for (i = 0; i < n; i++) { s = s + i; } return s; }" in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let forest = Loop.compute cfg in
  let est = Staticfreq.estimate cfg forest in
  (* entry block has frequency 1 *)
  Alcotest.check feq "entry" 1.0 est.bfreq.(Cfg.entry cfg);
  (* the loop body should be visited about 1/(1-0.88) ~ 8.3 times *)
  let body_freq = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "loop amplification ~8x" true
    (body_freq > 6.0 && body_freq < 10.0)

let spbo_nested_multiplies () =
  let prog =
    lower
      "int main(int n) { int i; int j; int s = 0;\n\
       for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { s = s + 1; } }\n\
       return s; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let est = Staticfreq.estimate cfg (Loop.compute cfg) in
  let inner = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "nested ~8*8" true (inner > 40.0 && inner < 90.0)

let spbo_if_split () =
  let prog =
    lower
      "int main(int a) { int x = 0;\n\
       if (a > 0) { x = 1; } else { x = 2; } return x; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let est = Staticfreq.estimate cfg (Loop.compute cfg) in
  let entry = Cfg.entry cfg in
  List.iter
    (fun succ -> Alcotest.check feq "50/50" 0.5 (est.eprob (entry, succ)))
    cfg.succs.(entry)

let spbo_fp_probability () =
  let prog =
    lower
      "int main(int n) { int i; double s = 0.0;\n\
       for (i = 0; i < n; i++) { s = s + i * 0.5; } return (int)s; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let forest = Loop.compute cfg in
  let est = Staticfreq.estimate cfg forest in
  (* FP loops get 0.93: amplification 1/(1-0.93) ~ 14.3 *)
  let body = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "fp loop hotter" true (body > 11.0 && body < 16.0)

let spbo_flow_conservation () =
  (* for every non-entry block, freq = sum of incoming edge freqs *)
  let prog = lower loop10 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      let est = Staticfreq.estimate cfg (Loop.compute cfg) in
      Array.iter
        (fun b ->
          if b <> Cfg.entry cfg then begin
            let inflow =
              List.fold_left
                (fun acc p -> acc +. est.efreq (p, b))
                0.0 cfg.preds.(b)
            in
            Alcotest.check (Alcotest.float 1e-6)
              (Printf.sprintf "%s b%d" f.fname b)
              inflow est.bfreq.(b)
          end)
        cfg.rpo)
    prog.funcs

(* ------------------------- ISPBO ------------------------- *)

let ispbo_prog =
  "int leaf() { return 1; }\n\
   int hot() { int i; int s = 0;\n\
   for (i = 0; i < 100; i++) { s = s + leaf(); } return s; }\n\
   int cold_fn() { return leaf(); }\n\
   int main(int n) { int i; int s = 0;\n\
   for (i = 0; i < n; i++) { s = s + hot(); }\n\
   s = s + cold_fn(); return s; }"

let ispbo_scales_callees () =
  let prog = lower ispbo_prog in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.check feq "main once" 1.0 (Ipscale.global_count ips "main");
  let hot = Ipscale.global_count ips "hot" in
  let cold = Ipscale.global_count ips "cold_fn" in
  let leaf = Ipscale.global_count ips "leaf" in
  Alcotest.(check bool) "hot called ~8x" true (hot > 6.0 && hot < 10.0);
  Alcotest.check feq "cold called once" 1.0 cold;
  Alcotest.(check bool) "leaf amplified through hot" true (leaf > hot);
  (* the exponent separates hot from cold further *)
  let sc15 = Ipscale.scaled_block_counts ~exponent:1.5 ips "hot" in
  let sc10 = Ipscale.scaled_block_counts ~exponent:1.0 ips "hot" in
  Alcotest.(check bool) "exponent amplifies" true
    (Array.fold_left max 0.0 sc15 > Array.fold_left max 0.0 sc10)

let ispbo_recursion_terminates () =
  let prog =
    lower
      "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\n\
       int main() { return fact(5); }"
  in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Ipscale.global_count ips "fact"));
  Alcotest.(check bool) "positive" true (Ipscale.global_count ips "fact" > 0.0)

let ispbo_addr_taken_fallback () =
  let prog =
    lower
      "typedef int (*cb)(int);\n\
       int handler(int x) { return x + 1; }\n\
       int main() { cb f; f = (&handler); return f(1); }"
  in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.check feq "address-taken fallback" 1.0
    (Ipscale.global_count ips "handler")

(* ------------------------- weights registry ------------------------- *)

let weights_registry () =
  let prog = lower loop10 in
  Alcotest.(check bool) "dcache schemes rejected" true
    (match Weights.block_weights prog Weights.DMISS ~feedback:None with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "PBO needs profile" true
    (match Weights.block_weights prog Weights.PBO ~feedback:None with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let bw = Weights.block_weights prog Weights.ISPBO ~feedback:None in
  Alcotest.(check bool) "covers all functions" true
    (Hashtbl.mem bw "main" && Hashtbl.mem bw "work");
  Alcotest.(check (list string)) "names" [ "PBO"; "PPBO"; "SPBO"; "ISPBO";
                                           "ISPBO.NO"; "ISPBO.W"; "DMISS";
                                           "DLAT"; "DMISS.NO" ]
    (List.map Weights.name Weights.all)

let () =
  Alcotest.run "profile"
    [
      ( "feedback",
        [
          Alcotest.test_case "roundtrip" `Quick feedback_roundtrip;
          Alcotest.test_case "accumulates" `Quick feedback_accumulates;
          Alcotest.test_case "signatures" `Quick signatures_disambiguate;
        ] );
      ( "collect+match",
        [
          Alcotest.test_case "collect and match" `Quick collect_and_match;
          Alcotest.test_case "perturbation" `Quick match_robust_to_perturbation;
          Alcotest.test_case "PBO = truth" `Quick pbo_matches_truth;
        ] );
      ( "feedback identity",
        List.map
          (fun ((name, _, _) as row) ->
            Alcotest.test_case name `Quick (feedback_identity row))
          seed_digests );
      ( "faults",
        [
          Alcotest.test_case "surface unwrapped" `Quick
            fault_surfaces_unwrapped;
          Alcotest.test_case "200 runs join their workers" `Quick
            faulting_runs_join_workers;
        ] );
      ( "spbo",
        [
          Alcotest.test_case "loop freq" `Quick spbo_loop_freq;
          Alcotest.test_case "nested" `Quick spbo_nested_multiplies;
          Alcotest.test_case "if split" `Quick spbo_if_split;
          Alcotest.test_case "fp probability" `Quick spbo_fp_probability;
          Alcotest.test_case "flow conservation" `Quick spbo_flow_conservation;
        ] );
      ( "ispbo",
        [
          Alcotest.test_case "scales callees" `Quick ispbo_scales_callees;
          Alcotest.test_case "recursion" `Quick ispbo_recursion_terminates;
          Alcotest.test_case "addr-taken fallback" `Quick
            ispbo_addr_taken_fallback;
        ] );
      ( "weights",
        [ Alcotest.test_case "registry" `Quick weights_registry ] );
    ]
