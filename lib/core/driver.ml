module Interp = Slo_vm.Interp
module Backend = Slo_vm.Backend
module Hierarchy = Slo_cachesim.Hierarchy
module Sampled = Slo_cachesim.Sampled
module Weights = Slo_profile.Weights
module Feedback = Slo_profile.Feedback
module Loc = Slo_minic.Loc

type measurement = {
  m_result : Interp.result;
  m_cycles : int;
  m_l1_misses : int;
  m_l2_misses : int;
  m_accesses : int;
}

type phase_ms = {
  ph_analyze_ms : float;
  ph_transform_ms : float;
  ph_measure_ms : float;
}

type evaluation = {
  e_before : measurement;
  e_after : measurement;
  e_decisions : Heuristics.decision list;
  e_transformed : Ir.program;
  e_speedup_pct : float;
  e_phases : phase_ms;
}

type decided = {
  legality : Legality.t;
  affinity : Affinity.t;
  decisions : Heuristics.decision list;
}

type error =
  | Syntax of { lexical : bool; msg : string; loc : Loc.t }
  | Type of string * Loc.t
  | Unsupported of string * Loc.t
  | Ill_formed of Verify.error list
  | Runtime of string
  | Dcache_scheme of Weights.scheme

exception Not_block_weights of Weights.scheme

let compile ?(verify = false) source =
  let ast = Slo_minic.Parser.parse source in
  let env = Slo_minic.Typecheck.check ast in
  let prog = Lower.lower ast env in
  if verify then Verify.check prog;
  prog

let measure ?(args = []) ?(config = Hierarchy.itanium)
    ?(fidelity = Sampled.Exact) ?pipeline (prog : Ir.program) : measurement =
  (* the VM appends packed events to a ring and the drain runs whole
     batches through the simulator: the hierarchy itself (exact), or
     the sampler's detailed windows and warm remainder (sampled), whose
     counters are window measurements scaled to the full run. Counters
     are byte-equal to per-access simulation at a fraction of the
     per-event cost. With a spare core free in the domain budget the
     drain runs on a worker domain, overlapped with execution (identical
     counters — the drainer preserves batch order); without one the
     inline sink is cheaper than the handoff. *)
  let drain, readout =
    match Sampled.of_fidelity config fidelity with
    | None ->
      let hier = Hierarchy.create config in
      ( (fun addrs metas n -> Hierarchy.drain_quiet hier addrs metas 0 n),
        fun (r : Interp.result) ->
          {
            m_result = r;
            m_cycles = r.steps + Hierarchy.extra_cycles hier;
            m_l1_misses = Slo_cachesim.Cache.misses (Hierarchy.l1 hier);
            m_l2_misses = Slo_cachesim.Cache.misses (Hierarchy.l2 hier);
            m_accesses = Hierarchy.accesses hier;
          } )
    | Some smp ->
      ( (fun addrs metas n -> Sampled.drain smp addrs metas 0 n),
        fun r ->
          {
            m_result = r;
            m_cycles = r.steps + Sampled.est_extra_cycles smp;
            m_l1_misses = Sampled.est_l1_misses smp;
            m_l2_misses = Sampled.est_l2_misses smp;
            m_accesses = Sampled.total_accesses smp;
          } )
  in
  readout
    (Slo_cachesim.Drainer.run ?pipeline ~drain (fun ring ->
         Backend.run ~args (Backend.create ~ring Backend.default prog)))

let analyze (prog : Ir.program) ~scheme ~feedback =
  let leg = Legality.analyze prog in
  let bw = Weights.block_weights prog scheme ~feedback in
  let aff = Affinity.analyze prog bw in
  (leg, aff)

let feedback_for ?(args = []) prog ~scheme =
  if Weights.is_dcache scheme then raise (Not_block_weights scheme);
  if Weights.needs_profile scheme then
    Some (fst (Slo_profile.Collect.collect ~args prog))
  else None

let decide ?pool prog ~scheme ~feedback =
  let legality, affinity = analyze prog ~scheme ~feedback in
  let decisions = Heuristics.decide ?pool prog legality affinity ~scheme in
  { legality; affinity; decisions }

let advise ?pool prog ~scheme ~feedback =
  let d = decide ?pool prog ~scheme ~feedback in
  let matched fb = (Slo_profile.Matching.apply prog fb).instr_dcache in
  Advisor.build prog d.legality d.affinity ~decisions:d.decisions
    ~dcache:(Option.map matched feedback)

let guard f =
  match f () with
  | v -> Ok v
  | exception Slo_minic.Lexer.Error (msg, loc) ->
    Error (Syntax { lexical = true; msg; loc })
  | exception Slo_minic.Parser.Error (msg, loc) ->
    Error (Syntax { lexical = false; msg; loc })
  | exception Slo_minic.Typecheck.Error (msg, loc) -> Error (Type (msg, loc))
  | exception Lower.Unsupported (msg, loc) -> Error (Unsupported (msg, loc))
  | exception Verify.Ill_formed errs -> Error (Ill_formed errs)
  | exception Slo_vm.Rt.Runtime_error msg -> Error (Runtime msg)
  | exception Not_block_weights scheme -> Error (Dcache_scheme scheme)

let render_error ?file e =
  let prefix = Option.fold ~none:"" ~some:(fun f -> f ^ ":") file in
  let whole = if file = None then "" else prefix ^ " " in
  let at loc what msg =
    Printf.sprintf "%s%s: %s: %s" prefix (Loc.to_string loc) what msg
  in
  match e with
  | Syntax { lexical; msg; loc } ->
    at loc (if lexical then "lexical error" else "syntax error") msg
  | Type (msg, loc) -> at loc "type error" msg
  | Unsupported (msg, loc) -> at loc "unsupported" msg
  | Ill_formed errs -> whole ^ "ill-formed IR:\n" ^ Verify.report errs
  | Runtime msg -> whole ^ "runtime error: " ^ msg
  | Dcache_scheme scheme ->
    Printf.sprintf
      "%sd-cache scheme %S attributes PMU samples, not block weights" whole
      (Codec.scheme_name scheme)

let transform_with_plans ?(verify = false) prog plans =
  let copy = Ircopy.copy_program prog in
  Heuristics.apply copy plans;
  if verify then Verify.check copy;
  copy

let speedup_pct ~before ~after =
  if before.m_cycles <= 0 || after.m_cycles <= 0 then
    invalid_arg
      (Printf.sprintf
         "Driver.speedup_pct: non-positive cycle count (before=%d, \
          after=%d) — broken measurement"
         before.m_cycles after.m_cycles);
  (float_of_int before.m_cycles /. float_of_int after.m_cycles -. 1.0)
  *. 100.0

let timed = Slo_util.Clock.timed

let evaluate ?(args = []) ?(config = Hierarchy.itanium) ?pool
    ?(verify = false) ?(fidelity = Sampled.Exact) ~scheme ~feedback
    (prog : Ir.program) : evaluation =
  let d, t_an =
    timed (fun () -> decide ?pool prog ~scheme ~feedback)
  in
  let plans = Heuristics.plans d.decisions in
  let transformed, t_tr =
    timed (fun () -> transform_with_plans ~verify prog plans)
  in
  let measure = measure ~args ~config ~fidelity in
  let (before, after), t_me =
    timed (fun () ->
        if plans = [] then begin
          (* no plan: [transformed] is an unmodified copy and simulation
             is deterministic, so its measurement is [prog]'s *)
          let m = measure prog in
          (m, m)
        end
        else
          (* original first, so its fault wins *)
          let before = measure prog in
          (before, measure transformed))
  in
  {
    e_before = before;
    e_after = after;
    e_decisions = d.decisions;
    e_transformed = transformed;
    e_speedup_pct = speedup_pct ~before ~after;
    e_phases =
      { ph_analyze_ms = t_an; ph_transform_ms = t_tr; ph_measure_ms = t_me };
  }
