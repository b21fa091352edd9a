(* Sampled cache simulation: exact-count unit tests for the period
   layout (detailed window / warm-up), the ring drain ≡ per-access
   properties (inline and pipelined), the stride = window ≡ exact
   property, and the roster accuracy gate that pins sampled estimates
   to exact simulation within fixed bounds. *)

module S = Slo_cachesim.Sampled
module Hierarchy = Slo_cachesim.Hierarchy
module Cache = Slo_cachesim.Cache
module D = Slo_core.Driver
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite

let acc ?(size = 4) ?(is_float = false) t addr =
  S.access t ~addr ~size ~is_float

(* ---------------- period layout, hand-computed counts ---------------- *)

(* window=2 stride=8 → detailed [0,2), warm [2,8) *)
let period_layout () =
  let t = S.create ~window:2 ~stride:8 Hierarchy.small in
  let h = S.hierarchy t in
  let a = 4096 and b = 8192 in
  (* [0,2) detailed: cold miss on a, then a hit on the same line *)
  acc t a;
  acc t a;
  Alcotest.(check int) "window recorded" 2 (S.recorded_accesses t);
  Alcotest.(check int) "1 L1 miss" 1 (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "1 L1 hit" 1 (Cache.hits (Hierarchy.l1 h));
  Alcotest.(check int) "two probes" 2 (Hierarchy.l1 h).Cache.tick;
  (* [2,8) warm-up: tag/LRU state moves, counters do not *)
  for _ = 1 to 6 do
    acc t b
  done;
  Alcotest.(check int) "warm not recorded" 2 (S.recorded_accesses t);
  Alcotest.(check int) "warm still counted" 8 (S.total_accesses t);
  Alcotest.(check int) "warm bumps no miss counter" 1
    (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "warm bumps no hit counter" 1
    (Cache.hits (Hierarchy.l1 h));
  (* only the first warm access probes: the repeats land on the line
     just touched, which is already resident and most-recent *)
  Alcotest.(check int) "warm repeats skip the probe" 3
    (Hierarchy.l1 h).Cache.tick;
  (* next period opens detailed: b is resident thanks to the warm-up *)
  acc t b;
  Alcotest.(check int) "warmed line hits in the next window" 2
    (Cache.hits (Hierarchy.l1 h));
  Alcotest.(check int) "9 total" 9 (S.total_accesses t);
  Alcotest.(check int) "3 recorded" 3 (S.recorded_accesses t);
  (* estimators scale window counters by total/recorded = 3 *)
  Alcotest.(check int) "est scales misses" 3 (S.est_l1_misses t)

(* a short sampler (stride=window) degenerates to no warm segment:
   every access detailed, scale stays 1 *)
let short_run_all_detailed () =
  let t = S.create ~window:4 ~stride:4 Hierarchy.small in
  for i = 0 to 9 do
    acc t (4096 + (64 * i))
  done;
  Alcotest.(check int) "all recorded" 10 (S.recorded_accesses t);
  Alcotest.(check int) "all counted" 10 (S.total_accesses t);
  Alcotest.(check bool) "scale is 1" true (S.scale t = 1.0)

(* an access occupies ONE position regardless of how many cache lines it
   straddles: a straddle inside the window records every covered line, a
   straddle in the warm segment warms every covered line *)
let straddle_positions () =
  (* window=1 stride=4 → detailed [0,1), warm [1,4) *)
  let t = S.create ~window:1 ~stride:4 Hierarchy.small in
  let h = S.hierarchy t in
  (* pos 0 detailed: 8 bytes across a 64 B boundary, two cold L1 lines *)
  acc ~size:8 t (4096 + 60);
  Alcotest.(check int) "straddle records both lines" 2
    (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "one access, one position" 1 (S.recorded_accesses t);
  (* pos 1,2 warm another line *)
  acc t 0;
  acc t 0;
  (* pos 3 warm: straddle over two fresh lines — resident, unrecorded *)
  acc ~size:8 t (8192 + 60);
  Alcotest.(check int) "warm accesses record nothing" 2
    (Cache.misses (Hierarchy.l1 h) + Cache.hits (Hierarchy.l1 h));
  Alcotest.(check int) "four positions, one recorded" 4 (S.total_accesses t);
  (* pos 0 of the next period: both warmed lines hit *)
  acc ~size:8 t (8192 + 60);
  Alcotest.(check int) "both warmed lines hit" 2 (Cache.hits (Hierarchy.l1 h))

let create_validates () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "window 0 rejected" true (bad (fun () ->
      S.create ~window:0 ~stride:8 Hierarchy.small));
  Alcotest.(check bool) "negative window rejected" true (bad (fun () ->
      S.create ~window:(-2) ~stride:8 Hierarchy.small));
  Alcotest.(check bool) "stride < window rejected" true (bad (fun () ->
      S.create ~window:8 ~stride:4 Hierarchy.small));
  Alcotest.(check bool) "stride = window accepted" false (bad (fun () ->
      S.create ~window:8 ~stride:8 Hierarchy.small));
  Alcotest.(check bool) "defaults accepted" false (bad (fun () ->
      S.create Hierarchy.small))

(* ---------------- ring drain ≡ per-access ---------------- *)

module Ring = Slo_cachesim.Ring

let cache_state_eq (a : Cache.t) (b : Cache.t) =
  a.Cache.tags = b.Cache.tags
  && a.Cache.stamps = b.Cache.stamps
  && a.Cache.tick = b.Cache.tick
  && a.Cache.hits = b.Cache.hits
  && a.Cache.misses = b.Cache.misses

let sampler_state_eq a b =
  let ha = S.hierarchy a and hb = S.hierarchy b in
  cache_state_eq (Hierarchy.l1 ha) (Hierarchy.l1 hb)
  && cache_state_eq (Hierarchy.l2 ha) (Hierarchy.l2 hb)
  && Hierarchy.accesses ha = Hierarchy.accesses hb
  && Hierarchy.level_counts ha = Hierarchy.level_counts hb
  && Hierarchy.extra_cycles ha = Hierarchy.extra_cycles hb
  && S.total_accesses a = S.total_accesses b
  && S.recorded_accesses a = S.recorded_accesses b
  && S.est_l1_misses a = S.est_l1_misses b
  && S.est_l2_misses a = S.est_l2_misses b
  && S.est_extra_cycles a = S.est_extra_cycles b

(* [Sampled.drain] slices ring batches into period segments; counters
   and cache state must be byte-equal to feeding every event through
   [Sampled.access] — across random period layouts (including
   degenerate warmless ones), random event streams and random batch
   boundaries. *)
let gen_sampled_case =
  QCheck.Gen.(
    int_range 1 6 >>= fun window ->
    int_range 0 6 >>= fun warm ->
    let stride = window + warm in
    list_size (int_range 1 300)
      (int_range 0 1023 >>= fun addr ->
       int_range 1 8 >>= fun size ->
       bool >>= fun write ->
       bool >>= fun is_float ->
       return (addr, size, write, is_float))
    >>= fun events ->
    int_range 1 13 >>= fun chunk ->
    return (window, stride, events, chunk))

let print_sampled_case (window, stride, events, chunk) =
  Printf.sprintf "W=%d S=%d chunk=%d events=%s" window stride chunk
    (String.concat ";"
       (List.map
          (fun (a, s, w, f) -> Printf.sprintf "(%d,%d,%b,%b)" a s w f)
          events))

(* the per-access reference: a fresh sampler fed one event at a time *)
let per_access window stride events =
  let t = S.create ~window ~stride Hierarchy.small in
  List.iter
    (fun (addr, size, _, is_float) -> S.access t ~addr ~size ~is_float)
    events;
  t

let prop_drain_matches_per_access =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"sampled drain byte-equal to per-access"
    (QCheck.make gen_sampled_case ~print:print_sampled_case)
    (fun (window, stride, events, chunk0) ->
      let dra = S.create ~window ~stride Hierarchy.small in
      let n = List.length events in
      let addrs = Array.make n 0 and metas = Array.make n 0 in
      List.iteri
        (fun i (addr, size, write, is_float) ->
          addrs.(i) <- addr;
          metas.(i) <- Ring.meta ~size ~write ~is_float ~iid:i)
        events;
      let lo = ref 0 and k = ref 0 in
      while !lo < n do
        let c = min (n - !lo) (1 + ((chunk0 + !k) mod 13)) in
        S.drain dra addrs metas !lo (!lo + c);
        lo := !lo + c;
        incr k
      done;
      sampler_state_eq (per_access window stride events) dra)

module Drainer = Slo_cachesim.Drainer

(* The sampled measure phase on the worker domain: the same property
   through [Drainer.run ~pipeline:true] at random ring capacities, so
   batch handoffs (and buffer swaps) land anywhere in the period
   layout *)
let prop_pipelined_drain_matches_per_access =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"pipelined sampled drain byte-equal to per-access"
    QCheck.(
      pair
        (make gen_sampled_case ~print:print_sampled_case)
        (int_range 1 64))
    (fun ((window, stride, events, _), cap) ->
      let dra = S.create ~window ~stride Hierarchy.small in
      Drainer.run ~pipeline:true ~cap
        ~drain:(fun a m n -> S.drain dra a m 0 n)
        (fun rg ->
          List.iteri
            (fun i (addr, size, write, is_float) ->
              Ring.push rg addr (Ring.meta ~size ~write ~is_float ~iid:i))
            events);
      sampler_state_eq (per_access window stride events) dra)

(* ---------------- stride = window ≡ exact ---------------- *)

let stride_eq_window_is_exact () =
  let t = S.create ~window:64 ~stride:64 Hierarchy.small in
  let h = S.hierarchy t in
  let exact = Hierarchy.create Hierarchy.small in
  for i = 0 to 999 do
    let a = i * 7919 mod 16384 and is_float = i mod 5 = 0 in
    S.access t ~addr:a ~size:8 ~is_float;
    ignore (Hierarchy.access exact ~addr:a ~size:8 ~is_float)
  done;
  Alcotest.(check int) "accesses" (Hierarchy.accesses exact)
    (Hierarchy.accesses h);
  Alcotest.(check int) "L1 hits" (Cache.hits (Hierarchy.l1 exact))
    (Cache.hits (Hierarchy.l1 h));
  Alcotest.(check int) "L1 misses" (Cache.misses (Hierarchy.l1 exact))
    (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "L2 hits" (Cache.hits (Hierarchy.l2 exact))
    (Cache.hits (Hierarchy.l2 h));
  Alcotest.(check int) "L2 misses" (Cache.misses (Hierarchy.l2 exact))
    (Cache.misses (Hierarchy.l2 h));
  Alcotest.(check int) "extra cycles" (Hierarchy.extra_cycles exact)
    (Hierarchy.extra_cycles h);
  Alcotest.(check bool) "scale 1" true (S.scale t = 1.0);
  Alcotest.(check int) "estimate = raw count"
    (Cache.misses (Hierarchy.l1 exact))
    (S.est_l1_misses t)

(* ---------------- the fidelity knob ---------------- *)

let fidelity_strings () =
  let ok s = match S.fidelity_of_string s with Ok f -> f | Error e -> Alcotest.fail e in
  let rejected s =
    match S.fidelity_of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "exact" true (ok "exact" = S.Exact);
  Alcotest.(check bool) "sampled defaults" true (ok "sampled" = S.sampled_default);
  Alcotest.(check bool) "sampled:W,S" true
    (ok "sampled:256,2048" = S.Sampled { window = 256; stride = 2048 });
  (* a zero third field is the full-warming layout it always meant *)
  Alcotest.(check bool) "sampled:W,S,0" true
    (ok "sampled:256,2048,0" = S.Sampled { window = 256; stride = 2048 });
  (* name ∘ parse round-trips *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " round-trips") true (ok (S.fidelity_name (ok s)) = ok s))
    [ "exact"; "sampled"; "sampled:128,1024"; "sampled:128,1024,0" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (rejected s))
    [ ""; "fast"; "sampled:"; "sampled:0,8"; "sampled:16,8"; "sampled:1,2,3";
      "sampled:4,16,-1"; "sampled:256,2048,1024"; "sampled:x,y" ]

(* each misconfiguration is rejected with its specific diagnosis *)
let fidelity_rejection_messages () =
  let err s =
    match S.fidelity_of_string s with
    | Error e -> e
    | Ok _ -> Alcotest.failf "%S unexpectedly accepted" s
  in
  let check_msg s fragment =
    let e = err s in
    Alcotest.(check bool)
      (Printf.sprintf "%S -> %S (got %S)" s fragment e)
      true
      (Astring.String.is_infix ~affix:fragment e)
  in
  check_msg "sampled:0,8" "window must be positive";
  check_msg "sampled:-4,8" "window must be positive";
  check_msg "sampled:4,0" "stride must be positive";
  check_msg "sampled:16,8" "window must not exceed stride";
  (* the removed fast-forward mode gets its own diagnosis, whatever
     the rest of the spec... *)
  check_msg "sampled:4096,32768,4096" "fast-forward mode";
  check_msg "sampled:4096,32768,4096" "use sampled:WINDOW,STRIDE";
  check_msg "sampled:4,16,12" "fast-forward mode";
  check_msg "sampled:4,16,-1" "fast-forward mode";
  (* ...and K = 0, like W = S (pure exact), stays legal *)
  (match S.fidelity_of_string "sampled:16,16" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sampled:16,16 rejected: %s" e);
  (match S.fidelity_of_string "sampled:4,16,0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sampled:4,16,0 rejected: %s" e);
  check_msg "sampled:x,y" "integer fields";
  check_msg "sampled:1,2,3,4" "integer fields";
  check_msg "bogus" "expected exact | sampled"

(* ---------------- roster accuracy gate ---------------- *)

(* The tier-1 face of the accuracy harness (bench/accuracy.exe runs the
   real sizes): per roster program, sampled fidelity must agree with
   exact simulation within |Δ| ≤ 0.5pp L1 / 1.0pp L2 miss rate, the
   measured speedup must agree in sign, and the transformation plans
   must be identical. Window/stride are scaled down with the tiny
   argument sizes so several periods still elapse. *)
open Slo_bench.Accuracy_rule

let test_fidelity = S.Sampled { window = 256; stride = 2048 }

let tiny_args (e : Suite.entry) = List.map (fun a -> max 1 (a / 8)) e.train_args

let miss_rate_pct misses (m : D.measurement) =
  if m.D.m_accesses = 0 then 0.0
  else 100.0 *. float_of_int misses /. float_of_int m.D.m_accesses

let plan_summaries (ev : D.evaluation) =
  String.concat "; "
    (List.filter_map
       (fun (d : H.decision) -> Option.map H.plan_summary d.d_plan)
       ev.e_decisions)

(* the decision-flip rule itself, shared with bench/accuracy.exe and
   bench/compare.exe: the dead-zone edge is not a knife edge *)
let accuracy_rule () =
  let flip a b = sign_flip a b && sign_flip b a in
  let agree a b = (not (sign_flip a b)) && not (sign_flip b a) in
  Alcotest.(check (list int)) "sign_of around the band" [ -1; 0; 0; 0; 1 ]
    (List.map sign_of [ -0.11; -0.1; 0.0; 0.1; 0.11 ]);
  Alcotest.(check bool) "straddling the band edge agrees" true
    (agree 0.099 0.101 && agree (-0.099) (-0.101));
  Alcotest.(check bool) "same side agrees" true
    (agree 3.0 0.5 && agree (-3.0) (-0.5) && agree 0.0 0.05);
  Alcotest.(check bool) "zero vs less than twice the band agrees" true
    (agree 0.0 0.2 && agree 0.05 (-0.2));
  Alcotest.(check bool) "zero vs more than twice the band flips" true
    (flip 0.0 0.21 && flip 0.05 (-0.3));
  Alcotest.(check bool) "opposite signs flip" true
    (flip 0.11 (-0.11) && flip 2.0 (-1.0))

let roster_accuracy (e : Suite.entry) () =
  let prog = D.compile e.source in
  let args = tiny_args e in
  let exact =
    D.evaluate ~args ~config:Hierarchy.small ~scheme:W.ISPBO ~feedback:None prog
  in
  (* the production configuration: superblock backend + sampled windows *)
  let sampled =
    D.evaluate ~args ~config:Hierarchy.small
      ~backend:Slo_vm.Backend.Superblock ~fidelity:test_fidelity
      ~scheme:W.ISPBO ~feedback:None prog
  in
  let check_side label (x : D.measurement) (s : D.measurement) =
    (* execution is exact in every fidelity *)
    Alcotest.(check string) (label ^ " output") x.m_result.output
      s.m_result.output;
    Alcotest.(check int) (label ^ " exit") x.m_result.exit_code
      s.m_result.exit_code;
    Alcotest.(check int) (label ^ " steps") x.m_result.steps s.m_result.steps;
    Alcotest.(check int) (label ^ " accesses") x.m_accesses s.m_accesses;
    (* counters are estimates, bounded in miss-rate terms *)
    let d1 =
      Float.abs (miss_rate_pct x.m_l1_misses x -. miss_rate_pct s.m_l1_misses s)
    and d2 =
      Float.abs (miss_rate_pct x.m_l2_misses x -. miss_rate_pct s.m_l2_misses s)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s L1 miss-rate |d| %.3fpp <= %.1fpp" label d1 l1_bound_pp)
      true (d1 <= l1_bound_pp);
    Alcotest.(check bool)
      (Printf.sprintf "%s L2 miss-rate |d| %.3fpp <= %.1fpp" label d2 l2_bound_pp)
      true (d2 <= l2_bound_pp)
  in
  check_side "before" exact.e_before sampled.e_before;
  check_side "after" exact.e_after sampled.e_after;
  (* sampling never changes the analysis or the chosen plans *)
  Alcotest.(check string) "plans agree" (plan_summaries exact)
    (plan_summaries sampled);
  (* and must not flip the sign of the measured effect *)
  Alcotest.(check bool)
    (Printf.sprintf "speedup sign agrees (%+.2f%% vs %+.2f%%)"
       exact.e_speedup_pct sampled.e_speedup_pct)
    true
    (not (sign_flip exact.e_speedup_pct sampled.e_speedup_pct))

(* the pipelined drain (worker-domain Drainer) must produce the same
   measurement as the serial sink, bit for bit — same cycles, same miss
   counters, same access totals — at either fidelity *)
let roster_pipelined_measure fidelity (e : Suite.entry) () =
  let prog = D.compile e.source in
  let args = tiny_args e in
  let m ~pipeline =
    D.measure ~args ~config:Hierarchy.small
      ~backend:Slo_vm.Backend.Superblock ~fidelity ~pipeline prog
  in
  let s = m ~pipeline:false and p = m ~pipeline:true in
  Alcotest.(check string) "output" s.D.m_result.output p.D.m_result.output;
  Alcotest.(check int) "exit" s.D.m_result.exit_code p.D.m_result.exit_code;
  Alcotest.(check int) "steps" s.D.m_result.steps p.D.m_result.steps;
  Alcotest.(check int) "cycles" s.D.m_cycles p.D.m_cycles;
  Alcotest.(check int) "L1 misses" s.D.m_l1_misses p.D.m_l1_misses;
  Alcotest.(check int) "L2 misses" s.D.m_l2_misses p.D.m_l2_misses;
  Alcotest.(check int) "accesses" s.D.m_accesses p.D.m_accesses

let () =
  let per_entry mk =
    List.map
      (fun (e : Suite.entry) -> Alcotest.test_case e.name `Quick (mk e))
      (Suite.roster @ Suite.case_studies)
  in
  Alcotest.run "sampled"
    [
      ( "periods",
        [
          Alcotest.test_case "layout" `Quick period_layout;
          Alcotest.test_case "short run all detailed" `Quick
            short_run_all_detailed;
          Alcotest.test_case "straddle positions" `Quick straddle_positions;
          Alcotest.test_case "create validates" `Quick create_validates;
        ] );
      ( "ring drain",
        [
          QCheck_alcotest.to_alcotest prop_drain_matches_per_access;
          QCheck_alcotest.to_alcotest prop_pipelined_drain_matches_per_access;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "stride = window is exact" `Quick
            stride_eq_window_is_exact;
          Alcotest.test_case "fidelity strings" `Quick fidelity_strings;
          Alcotest.test_case "fidelity rejection messages" `Quick
            fidelity_rejection_messages;
          Alcotest.test_case "accuracy rule" `Quick accuracy_rule;
        ] );
      ("roster accuracy", per_entry roster_accuracy);
      ("roster pipelined measure", per_entry (roster_pipelined_measure S.Exact));
      ( "roster pipelined sampled",
        per_entry (roster_pipelined_measure test_fidelity) );
    ]
