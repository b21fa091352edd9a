module Weights = Slo_profile.Weights

type plan = Transform.plan =
  | Split of Transform.split_spec
  | Peel of Transform.peel_spec
  | Rebuild of Transform.rebuild_spec
  | Pad of Transform.pad_spec
  | Pool of Transform.pool_spec

type decision = {
  d_typ : string;
  d_plan : plan option;
  d_notes : string list;
}

let threshold_pbo = 3.0
let threshold_ispbo = 7.5

let threshold_for (scheme : Weights.scheme) =
  match scheme with
  | Weights.PBO | Weights.PPBO -> threshold_pbo
  | Weights.SPBO | Weights.ISPBO | Weights.ISPBO_NO | Weights.ISPBO_W
  | Weights.DMISS | Weights.DLAT | Weights.DMISS_NO ->
    threshold_ispbo

(* tagged loads that exist in the program text, independent of profile
   weight: a field read only on a never-executed path has weighted
   reads = 0.0, but removing it would orphan the load (the verifier
   catches the dangling access; the oracle catches the miscompile when a
   ref input reaches the path) *)
let statically_read (prog : Ir.program) : (string * int, unit) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Iload (_, _, _, Some a) ->
                Hashtbl.replace t (a.astruct, a.afield) ()
              | _ -> ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  t

let dead_fields (prog : Ir.program) (info : Legality.info)
    (g : Affinity.graph) ~static_reads : int list =
  match Structs.find_opt prog.structs g.gtyp with
  | None -> []
  | Some decl ->
    List.filter
      (fun fi ->
        let fld = decl.fields.(fi) in
        g.reads.(fi) = 0.0
        && (not (Hashtbl.mem static_reads (g.gtyp, fi)))
        && fld.bits = None
        && not (List.mem fi info.attrs.addr_passed_fields))
      (List.init (Array.length decl.fields) Fun.id)

type candidate = {
  c_decl : Structs.decl;
  c_info : Legality.info;
  c_graph : Affinity.graph;
  c_dead : int list;
  c_live : int list;
  c_rel : float array;
  c_by_hot : int list;
  c_peelable : bool;
}

(* the paper's gauntlet: strictly legal, dynamically allocated, no
   by-value instances, not realloc'd, profiled, something left alive *)
let candidate (prog : Ir.program) (leg : Legality.t) (aff : Affinity.t)
    ~static_reads typ : (candidate, string) result =
  let info = Legality.info leg typ in
  let a = info.attrs in
  if not (Legality.is_legal leg typ) then
    Error
      ("invalid: "
      ^ String.concat ","
          (List.map Legality.reason_name (Legality.reasons leg typ)))
  else if not a.dyn_alloc then Error "not dynamically allocated"
  else if a.has_global_var || a.has_local_var || a.has_static_array then
    Error "has by-value instances"
  else if a.realloced then Error "realloc'd (implementation limitation)"
  else
    match Affinity.graph aff typ with
    | None -> Error "no affinity data"
    | Some g ->
      let decl = Structs.find prog.structs typ in
      let dead = dead_fields prog info g ~static_reads in
      let live =
        List.filter
          (fun fi -> not (List.mem fi dead))
          (List.init (Array.length decl.fields) Fun.id)
      in
      if live = [] then Error "all fields dead"
      else
        let rel = Affinity.relative_hotness g in
        Ok
          {
            c_decl = decl;
            c_info = info;
            c_graph = g;
            c_dead = dead;
            c_live = live;
            c_rel = rel;
            c_by_hot =
              List.stable_sort (fun a b -> compare rel.(b) rel.(a)) live;
            c_peelable =
              Transform.peel_feasible prog ~typ ~globals:a.global_ptrs;
          }

let peel_plan c =
  Peel
    { Transform.p_typ = c.c_decl.sname; p_live = c.c_live; p_dead = c.c_dead;
      p_globals = c.c_info.attrs.global_ptrs }

let split_plan ?order c ~k =
  let hot = List.filteri (fun i _ -> i < k) c.c_by_hot in
  Split
    { Transform.s_typ = c.c_decl.sname;
      s_hot = Option.value order ~default:hot;
      s_cold = List.filter (fun fi -> not (List.mem fi hot)) c.c_live;
      s_dead = c.c_dead }

let rebuild_plan ?order c =
  Rebuild
    { Transform.r_typ = c.c_decl.sname;
      r_order = Option.value order ~default:c.c_by_hot; r_dead = c.c_dead }

let decide ?threshold ?(pool = false) (prog : Ir.program) (leg : Legality.t)
    (aff : Affinity.t) ~scheme : decision list =
  let threshold =
    match threshold with Some t -> t | None -> threshold_for scheme
  in
  let static_reads = statically_read prog in
  (* opt-in: pooling rides behind a flag so the default decisions (and
     the golden tests / perf baselines pinned to them) are untouched *)
  let shape = lazy (Shape.analyze prog) in
  let decide_one typ : decision =
    let finish note plan = { d_typ = typ; d_plan = plan; d_notes = [ note ] } in
    let pool_verdict =
      if not (pool && Legality.is_legal leg typ) then None
      else
        match Shape.verdict (Lazy.force shape) typ with
        | Some v when v.Shape.v_poolable -> Some v
        | Some _ | None -> None
    in
    match pool_verdict with
    | Some v ->
      finish
        (Printf.sprintf
           "poolable recursive type: %d link field(s) (%s), single \
            allocation site"
           (List.length v.Shape.v_links)
           (String.concat "," v.Shape.v_link_names))
        (Some (Pool { Transform.po_typ = typ; po_links = v.Shape.v_links }))
    | None -> (
      match candidate prog leg aff ~static_reads typ with
      | Error note -> finish note None
      | Ok c ->
        let ndead = List.length c.c_dead in
        if c.c_peelable then
          finish
            (Printf.sprintf "peeled into %d pieces%s" (List.length c.c_live)
               (if ndead = 0 then ""
                else Printf.sprintf ", %d dead fields removed" ndead))
            (Some (peel_plan c))
        else
          let k =
            List.length (List.filter (fun fi -> c.c_rel.(fi) >= threshold) c.c_live)
          in
          let ncold = List.length c.c_live - k in
          if ncold >= 2 && k > 0 then
            finish
              (Printf.sprintf "split: %d hot, %d cold (T_s=%.1f%%)%s" k ncold
                 threshold
                 (if ndead = 0 then "" else Printf.sprintf ", %d dead" ndead))
              (Some (split_plan c ~k))
          else if ndead > 0 then
            finish
              (Printf.sprintf "dead field removal only (%d fields)" ndead)
              (Some (rebuild_plan c))
          else
            finish
              (Printf.sprintf
                 "no profitable split (cold=%d, need >= 2; T_s=%.1f%%)" ncold
                 threshold)
              None)
  in
  List.map decide_one (Legality.types leg)

let plans ds = List.filter_map (fun d -> d.d_plan) ds

let apply prog plans = List.iter (Transform.apply prog) plans

let plan_summary = function
  | Split s ->
    Printf.sprintf "split %s: %d hot + link, %d cold, %d dead" s.s_typ
      (List.length s.s_hot) (List.length s.s_cold) (List.length s.s_dead)
  | Peel s ->
    Printf.sprintf "peel %s: %d pieces, %d dead" s.p_typ
      (List.length s.p_live) (List.length s.p_dead)
  | Rebuild s ->
    Printf.sprintf "rebuild %s: %d fields, %d dead removed" s.r_typ
      (List.length s.r_order) (List.length s.r_dead)
  | Pad s -> Printf.sprintf "pad %s: +%d bytes" s.pd_typ s.pd_bytes
  | Pool s ->
    Printf.sprintf "pool %s: %d link field(s) factored to parallel arrays"
      s.po_typ (List.length s.po_links)
