module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module Legality = Slo_core.Legality
module Affinity = Slo_core.Affinity
module W = Slo_profile.Weights
module Backend = Slo_vm.Backend
module Sampled = Slo_cachesim.Sampled
module Hierarchy = Slo_cachesim.Hierarchy
module Pool = Slo_exec.Pool
module Clock = Slo_util.Clock

type config = {
  scheme : W.scheme;
  feedback : Slo_profile.Feedback.t option;
  args : int list;
  beam : int;
  max_candidates : int;
  seed : int;
  budget_ms : float option;
  jobs : int;
  backend : Backend.t;
  fidelity : Sampled.fidelity;
  cache : Hierarchy.config;
}

let default_config ~scheme ~feedback =
  {
    scheme;
    feedback;
    args = [];
    beam = 4;
    max_candidates = 256;
    seed = 0;
    budget_ms = None;
    jobs = 1;
    backend = Backend.default;
    fidelity = Sampled.sampled_default;
    cache = Hierarchy.itanium;
  }

type result = {
  t_baseline_cycles : int;
  t_heuristic : H.plan list;
  t_heuristic_cycles : int;
  t_found : H.plan list;
  t_found_cycles : int;
  t_improved : bool;
  t_explored : int;
  t_rejected : int;
  t_total : int;
  t_complete : bool;
  t_wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Candidate enumeration                                               *)
(* ------------------------------------------------------------------ *)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(* the byte size a field list would lay out to, via a scratch struct
   table — struct-typed fields cannot occur (NEST invalidates nesting)
   and pointer sizes never consult the pointee, so the single scratch
   definition is self-contained *)
let fields_size (fields : Structs.field list) =
  let scratch = Structs.create () in
  Structs.define scratch "__tune_probe" fields;
  Layout.struct_size (Layout.create scratch) "__tune_probe"

(* trailing-pad classes for a prospective element size: nothing, round
   up to the next power of two, round up to a 64-byte line — array
   elements stop straddling line boundaries once the padded size divides
   (or is a multiple of) the line. Pads past 64 bytes only dilute. *)
let pad_classes size =
  let p2 = next_pow2 size 1 - size in
  let line = if size mod 64 = 0 then 0 else 64 - (size mod 64) in
  let keep p = p > 0 && p <= 64 in
  List.sort_uniq compare
    ((if keep p2 then [ p2 ] else []) @ (if keep line then [ line ] else []))

(* a greedy affinity chain: start with the hottest field, repeatedly
   append the remaining field most affine to the last placed one (ties:
   hotter first, then lower index) — the "affinity-seeded" permutation *)
let affinity_chain (g : Affinity.graph) (rel : float array) = function
  | [] -> []
  | hottest :: rest ->
    let rec go placed last remaining =
      match remaining with
      | [] -> List.rev placed
      | _ ->
        let pick =
          List.fold_left
            (fun acc f ->
              let w = Affinity.edge_weight g last f in
              match acc with
              | None -> Some (f, w)
              | Some (bf, bw) ->
                if
                  w > bw
                  || (w = bw
                     && (rel.(f) > rel.(bf) || (rel.(f) = rel.(bf) && f < bf)))
                then Some (f, w)
                else acc)
            None remaining
        in
        let f = fst (Option.get pick) in
        go (f :: placed) f (List.filter (fun x -> x <> f) remaining)
    in
    go [ hottest ] hottest rest

(* at most [beam] distinct orders of [fields]: hotness-descending, the
   affinity chain, declaration order, then adjacent transpositions of
   the hotness order *)
let field_orders (g : Affinity.graph) (rel : float array) ~beam fields =
  match fields with
  | [] | [ _ ] -> [ fields ]
  | _ ->
    let by_hot =
      List.stable_sort (fun a b -> compare rel.(b) rel.(a)) fields
    in
    let arr = Array.of_list by_hot in
    let swaps =
      List.init
        (Array.length arr - 1)
        (fun i ->
          let a = Array.copy arr in
          let t = a.(i) in
          a.(i) <- a.(i + 1);
          a.(i + 1) <- t;
          Array.to_list a)
    in
    let all =
      [ by_hot; affinity_chain g rel by_hot; List.sort compare fields ]
      @ swaps
    in
    let seen = Hashtbl.create 8 in
    List.filteri
      (fun _ o ->
        if Hashtbl.mem seen o then false
        else begin
          Hashtbl.add seen o ();
          true
        end)
      all
    |> List.filteri (fun i _ -> i < beam)

(* the per-struct alternatives, each one a plan list for that struct
   ([] = leave it untouched). Eligibility mirrors the heuristics' own
   decisions: what they refuse to touch, the tuner refuses to touch. *)
let struct_alternatives prog leg aff ~static_reads ~beam typ : H.plan list list
    =
  let untouched = [ [] ] in
  if not (Legality.is_legal leg typ) then untouched
  else begin
    let info = Legality.info leg typ in
    let a = info.Legality.attrs in
    if
      (not a.Legality.dyn_alloc)
      || a.has_global_var || a.has_local_var || a.has_static_array
      || a.realloced
    then untouched
    else
      match Affinity.graph aff typ with
      | None -> untouched
      | Some g ->
        let decl = Structs.find prog.Ir.structs typ in
        let nfields = Array.length decl.Structs.fields in
        let dead = H.dead_fields prog info g ~static_reads in
        let live =
          List.filter
            (fun fi -> not (List.mem fi dead))
            (List.init nfields Fun.id)
        in
        if live = [] then untouched
        else begin
          let rel = Affinity.relative_hotness g in
          let by_hot =
            List.stable_sort (fun a b -> compare rel.(b) rel.(a)) live
          in
          let field fi = decl.Structs.fields.(fi) in
          let with_pads ~typ' fields plan =
            plan
            :: List.map
                 (fun pd_bytes ->
                   plan @ [ H.Pad { T.pd_typ = typ'; pd_bytes } ])
                 (pad_classes (fields_size fields))
          in
          (* peel: one candidate when structurally feasible *)
          let peels =
            if T.peel_feasible prog ~typ ~globals:a.Legality.global_ptrs then
              [
                [
                  H.Peel
                    { T.p_typ = typ; p_live = live; p_dead = dead;
                      p_globals = a.Legality.global_ptrs };
                ];
              ]
            else []
          in
          (* splits: hot = top-k of the hotness order, cold the rest in
             declaration order; k leaves at least two cold fields (the
             link must pay for itself) and one hot *)
          let splits =
            List.concat_map
              (fun k ->
                let hot_set = List.filteri (fun i _ -> i < k) by_hot in
                let cold =
                  List.filter (fun fi -> not (List.mem fi hot_set)) live
                in
                List.concat_map
                  (fun order ->
                    let split =
                      H.Split
                        { T.s_typ = typ; s_hot = order; s_cold = cold;
                          s_dead = dead }
                    in
                    let hot_fields =
                      List.map field order
                      @ [
                          { Structs.name = T.link_field_name;
                            ty = Irty.Ptr (Irty.Struct (T.cold_name typ));
                            bits = None };
                        ]
                    in
                    with_pads ~typ':(T.hot_name typ) hot_fields [ split ])
                  (field_orders g rel ~beam hot_set))
              (List.init (max 0 (List.length live - 2)) (fun i -> i + 1))
          in
          (* rebuild-reorder variants; skip the pure identity *)
          let decl_live = List.sort compare live in
          let rebuilds =
            List.concat_map
              (fun order ->
                let rebuild =
                  H.Rebuild { T.r_typ = typ; r_order = order; r_dead = dead }
                in
                with_pads ~typ':typ (List.map field order) [ rebuild ])
              (field_orders g rel ~beam live)
            |> List.filter (fun plan ->
                   plan
                   <> [ H.Rebuild
                          { T.r_typ = typ; r_order = decl_live;
                            r_dead = [] } ])
          in
          (* pad-only candidates on the unchanged declaration *)
          let pad_only =
            List.map
              (fun pd_bytes -> [ H.Pad { T.pd_typ = typ; pd_bytes } ])
              (pad_classes (fields_size (Array.to_list decl.Structs.fields)))
          in
          ([] :: peels) @ splits @ rebuilds @ pad_only
        end
  end

let enumerate prog cfg =
  if cfg.beam < 1 then invalid_arg "Tune.enumerate: beam must be >= 1";
  if cfg.max_candidates < 1 then
    invalid_arg "Tune.enumerate: max_candidates must be >= 1";
  let leg, aff = D.analyze prog ~scheme:cfg.scheme ~feedback:cfg.feedback in
  let static_reads = H.statically_read prog in
  let per_struct =
    List.map
      (fun typ ->
        struct_alternatives prog leg aff ~static_reads ~beam:cfg.beam typ)
      (Legality.types leg)
  in
  (* cartesian product in canonical order, truncated at the cap; the
     all-empty combination (= the baseline) is dropped *)
  let product =
    List.fold_left
      (fun acc alts ->
        List.concat_map
          (fun partial -> List.map (fun alt -> partial @ alt) alts)
          acc)
      [ [] ] per_struct
  in
  List.filter (fun plans -> plans <> []) product
  |> List.filteri (fun i _ -> i < cfg.max_candidates)

(* ------------------------------------------------------------------ *)
(* Scoring and search                                                  *)
(* ------------------------------------------------------------------ *)

exception Rejected

(* deterministic seeded Fisher–Yates (a plain LCG; quality is irrelevant,
   reproducibility is the point) *)
let shuffle_in_place seed arr =
  let state = ref (((seed * 2) + 1) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next () mod (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

let search prog cfg =
  if cfg.jobs < 1 then invalid_arg "Tune.search: jobs must be >= 1";
  let t0 = Clock.now_ns () in
  let measure ~fidelity p =
    D.measure ~args:cfg.args ~config:cfg.cache ~backend:cfg.backend ~fidelity p
  in
  let base = measure ~fidelity:Sampled.Exact prog in
  let expected_exit = base.D.m_result.Slo_vm.Interp.exit_code in
  let expected_output = base.D.m_result.Slo_vm.Interp.output in
  let score ~fidelity plans =
    let transformed =
      match D.transform_with_plans ~verify:true prog plans with
      | p -> p
      | exception _ -> raise Rejected
    in
    let m = match measure ~fidelity transformed with
      | m -> m
      | exception _ -> raise Rejected
    in
    if
      m.D.m_result.Slo_vm.Interp.exit_code <> expected_exit
      || not (String.equal m.D.m_result.Slo_vm.Interp.output expected_output)
    then raise Rejected;
    m.D.m_cycles
  in
  let exact_score plans =
    if plans = [] then base.D.m_cycles else score ~fidelity:Sampled.Exact plans
  in
  (* the incumbent: budget-exempt, scored at exact fidelity. A heuristic
     plan failing its own transform would be a framework bug — let it
     propagate rather than masking it as a rejection. *)
  let heuristic =
    H.plans
      (D.decide prog ~scheme:cfg.scheme
         ~feedback:cfg.feedback)
        .D.decisions
  in
  let heuristic_cycles = exact_score heuristic in
  let candidates = Array.of_list (enumerate prog cfg) in
  shuffle_in_place cfg.seed candidates;
  let total = Array.length candidates in
  (* shared anytime state: workers publish completed scores; the winner
     is the lexicographic minimum of (cycles, index), so it does not
     depend on completion order *)
  let best = Atomic.make None in
  let explored = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let rec publish cycles idx =
    let cur = Atomic.get best in
    let better =
      match cur with
      | None -> true
      | Some (bc, bi) -> cycles < bc || (cycles = bc && idx < bi)
    in
    if better && not (Atomic.compare_and_set best cur (Some (cycles, idx)))
    then publish cycles idx
  in
  let score_candidate idx =
    (match score ~fidelity:cfg.fidelity candidates.(idx) with
    | cycles -> publish cycles idx
    | exception Rejected -> ignore (Atomic.fetch_and_add rejected 1));
    ignore (Atomic.fetch_and_add explored 1)
  in
  let remaining_ms () =
    match cfg.budget_ms with
    | None -> infinity
    | Some b -> b -. Clock.elapsed_ms ~since:t0
  in
  let complete =
    if total = 0 then true
    else if cfg.jobs = 1 then begin
      (* inline: check the budget between candidates; overrun is at most
         one candidate's scoring *)
      let i = ref 0 in
      while !i < total && remaining_ms () > 0.0 do
        score_candidate !i;
        incr i
      done;
      !i >= total
    end
    else begin
      (* pool: keep a bounded window in flight and stop submitting on
         expiry. In-flight futures are always awaited — Pool.shutdown
         drains the queue anyway, so abandoning them would not return
         any earlier, and their scores are paid for. *)
      let pool = Pool.create ~jobs:cfg.jobs in
      let window = 2 * cfg.jobs in
      let inflight = Queue.create () in
      let next = ref 0 in
      let stopped = ref false in
      let submit_window () =
        while
          (not !stopped) && !next < total && Queue.length inflight < window
        do
          let idx = !next in
          Queue.add (Pool.submit pool (fun () -> score_candidate idx)) inflight;
          incr next
        done
      in
      submit_window ();
      while not (Queue.is_empty inflight) do
        let fut = Queue.pop inflight in
        (match Pool.await fut with Ok () -> () | Error _ -> ());
        if remaining_ms () <= 0.0 then stopped := true;
        submit_window ()
      done;
      Pool.shutdown pool;
      !next >= total && not !stopped
    end
  in
  (* promotion: re-score the sampled winner at exact fidelity; the found
     plan must beat the incumbent exactly, or the incumbent stands *)
  let found, found_cycles =
    match Atomic.get best with
    | None -> (heuristic, heuristic_cycles)
    | Some (sampled_cycles, idx) -> (
      let plans = candidates.(idx) in
      if plans = heuristic then (heuristic, heuristic_cycles)
      else
        let exact_cycles =
          if cfg.fidelity = Sampled.Exact then Some sampled_cycles
          else match exact_score plans with
            | c -> Some c
            | exception Rejected -> None
        in
        match exact_cycles with
        | Some c when c < heuristic_cycles -> (plans, c)
        | Some _ | None -> (heuristic, heuristic_cycles))
  in
  {
    t_baseline_cycles = base.D.m_cycles;
    t_heuristic = heuristic;
    t_heuristic_cycles = heuristic_cycles;
    t_found = found;
    t_found_cycles = found_cycles;
    t_improved = found_cycles < heuristic_cycles;
    t_explored = Atomic.get explored;
    t_rejected = Atomic.get rejected;
    t_total = total;
    t_complete = complete;
    t_wall_ms = Clock.elapsed_ms ~since:t0;
  }
