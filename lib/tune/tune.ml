module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module Legality = Slo_core.Legality
module Affinity = Slo_core.Affinity
module W = Slo_profile.Weights
module Sampled = Slo_cachesim.Sampled
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
  fidelity : Sampled.fidelity;
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
    fidelity = Sampled.sampled_default;
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
   ([] = leave it untouched): the structs the heuristics may transform,
   with the heuristics' own plan constructors *)
let struct_alternatives prog leg aff ~static_reads ~beam typ : H.plan list list
    =
  match H.candidate prog leg aff ~static_reads typ with
  | Error _ -> [ [] ]
  | Ok c ->
    let typ = c.H.c_decl.Structs.sname in
    let field fi = c.c_decl.fields.(fi) in
    let orders = field_orders c.c_graph c.c_rel ~beam in
    let with_pads ~typ' fields plan =
      [ plan ]
      :: List.map
           (fun pd_bytes -> [ plan; H.Pad { T.pd_typ = typ'; pd_bytes } ])
           (pad_classes (fields_size fields))
    in
    let peels = if c.c_peelable then [ [ H.peel_plan c ] ] else [] in
    let link =
      { Structs.name = T.link_field_name;
        ty = Irty.Ptr (Irty.Struct (T.cold_name typ)); bits = None }
    in
    (* splits: the k hottest fields stay hot, the rest go cold; k leaves
       at least two cold fields (the link must pay for itself) and one
       hot *)
    let splits =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun order ->
              with_pads ~typ':(T.hot_name typ)
                (List.map field order @ [ link ])
                (H.split_plan c ~k ~order))
            (orders (List.filteri (fun i _ -> i < k) c.c_by_hot)))
        (List.init (max 0 (List.length c.c_live - 2)) (fun i -> i + 1))
    in
    (* rebuild-reorder variants; with no dead field, declaration order
       is the untouched program, and its pads are the pad-only ones *)
    let rebuilds =
      List.concat_map
        (fun order ->
          with_pads ~typ':typ (List.map field order) (H.rebuild_plan c ~order))
        (List.filter
           (fun order -> c.c_dead <> [] || order <> c.c_live)
           (orders c.c_live))
    in
    (* pad-only candidates on the unchanged declaration *)
    let pad_only =
      List.map
        (fun pd_bytes -> [ H.Pad { T.pd_typ = typ; pd_bytes } ])
        (pad_classes (fields_size (Array.to_list c.c_decl.fields)))
    in
    ([] :: peels) @ splits @ rebuilds @ pad_only

let check_config cfg =
  if cfg.beam < 1 then invalid_arg "Tune: beam must be >= 1";
  if cfg.max_candidates < 1 then
    invalid_arg "Tune: max_candidates must be >= 1"

(* the closure over one analysis result *)
let closure prog cfg leg aff =
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

let enumerate prog cfg =
  check_config cfg;
  let leg, aff = D.analyze prog ~scheme:cfg.scheme ~feedback:cfg.feedback in
  closure prog cfg leg aff

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
  check_config cfg;
  if cfg.jobs < 1 then invalid_arg "Tune.search: jobs must be >= 1";
  let t0 = Clock.now_ns () in
  let d = D.decide prog ~scheme:cfg.scheme ~feedback:cfg.feedback in
  let heuristic = H.plans d.D.decisions in
  let candidates = Array.of_list (closure prog cfg d.legality d.affinity) in
  let total = Array.length candidates in
  (* candidates are explored in a seeded shuffle of the enumeration *)
  let order = Array.init total Fun.id in
  shuffle_in_place cfg.seed order;
  let measure ~fidelity p = D.measure ~args:cfg.args ~fidelity p in
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
  let heuristic_cycles = exact_score heuristic in
  (* shared anytime state: workers publish completed scores; the winner
     is the lexicographic minimum of (cycles, enumeration index), so it
     depends neither on completion order nor on the shuffle *)
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
  let expired () =
    match cfg.budget_ms with
    | None -> false
    | Some b -> Clock.elapsed_ms ~since:t0 >= b
  in
  (* one pool scores every candidate; a job that starts after the
     budget expired skips its candidate, so the overrun is at most one
     candidate's scoring per worker. The blocked caller's core goes to
     the first busy worker, so a one-worker pool leaves the spare core
     to its measure runs' drains. *)
  let pool = Pool.create ~jobs:cfg.jobs in
  Array.iter
    (fun idx ->
      ignore
        (Pool.submit pool (fun () ->
             if not (expired ()) then begin
               (match score ~fidelity:cfg.fidelity candidates.(idx) with
               | cycles -> publish cycles idx
               | exception Rejected -> Atomic.incr rejected);
               Atomic.incr explored
             end)))
    order;
  Pool.shutdown pool;
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
    t_complete = Atomic.get explored = total;
    t_wall_ms = Clock.elapsed_ms ~since:t0;
  }
