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
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let finish plan = { d_typ = typ; d_plan = plan; d_notes = List.rev !notes } in
    let info = Legality.info leg typ in
    if not (Legality.is_legal leg typ) then begin
      note "invalid: %s"
        (String.concat ","
           (List.map Legality.reason_name (Legality.reasons leg typ)));
      finish None
    end
    else begin
      let a = info.attrs in
      let pool_verdict =
        if not pool then None
        else
          match Shape.verdict (Lazy.force shape) typ with
          | Some v when v.Shape.v_poolable -> Some v
          | Some _ | None -> None
      in
      match pool_verdict with
      | Some v ->
        note "poolable recursive type: %d link field(s) (%s), single \
              allocation site"
          (List.length v.Shape.v_links)
          (String.concat "," v.Shape.v_link_names);
        finish
          (Some
             (Pool { Transform.po_typ = typ; po_links = v.Shape.v_links }))
      | None ->
      if not a.dyn_alloc then begin
        note "not dynamically allocated";
        finish None
      end
      else if a.has_global_var || a.has_local_var || a.has_static_array then begin
        note "has by-value instances";
        finish None
      end
      else if a.realloced then begin
        note "realloc'd (implementation limitation)";
        finish None
      end
      else begin
        match Affinity.graph aff typ with
        | None ->
          note "no affinity data";
          finish None
        | Some g ->
          let decl = Structs.find prog.structs typ in
          let nfields = Array.length decl.fields in
          let dead = dead_fields prog info g ~static_reads in
          let live =
            List.filter
              (fun fi -> not (List.mem fi dead))
              (List.init nfields Fun.id)
          in
          if live = [] then begin
            note "all fields dead";
            finish None
          end
          else begin
            let rel = Affinity.relative_hotness g in
            let by_hotness_desc fis =
              List.stable_sort (fun a b -> compare rel.(b) rel.(a)) fis
            in
            if
              Transform.peel_feasible prog ~typ ~globals:a.global_ptrs
            then begin
              note "peeled into %d pieces%s" (List.length live)
                (if dead = [] then ""
                 else Printf.sprintf ", %d dead fields removed"
                        (List.length dead));
              finish
                (Some
                   (Peel
                      { Transform.p_typ = typ; p_live = live; p_dead = dead;
                        p_globals = a.global_ptrs }))
            end
            else begin
              let cold =
                List.filter (fun fi -> rel.(fi) < threshold) live
              in
              let hot = List.filter (fun fi -> rel.(fi) >= threshold) live in
              if List.length cold >= 2 && hot <> [] then begin
                note "split: %d hot, %d cold (T_s=%.1f%%)%s" (List.length hot)
                  (List.length cold) threshold
                  (if dead = [] then ""
                   else Printf.sprintf ", %d dead" (List.length dead));
                finish
                  (Some
                     (Split
                        { Transform.s_typ = typ; s_hot = by_hotness_desc hot;
                          s_cold = cold; s_dead = dead }))
              end
              else if dead <> [] then begin
                note "dead field removal only (%d fields)" (List.length dead);
                finish
                  (Some
                     (Rebuild
                        { Transform.r_typ = typ;
                          r_order = by_hotness_desc live; r_dead = dead }))
              end
              else begin
                note
                  "no profitable split (cold=%d, need >= 2; T_s=%.1f%%)"
                  (List.length cold) threshold;
                finish None
              end
            end
          end
      end
    end
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
