module Feedback = Slo_profile.Feedback

type field_dcache = { fd_misses : int; fd_latency : int }

type type_report = {
  tr_graph : Affinity.graph;
  tr_info : Legality.info;
  tr_decision : Heuristics.decision option;
}

type t = {
  prog : Ir.program;
  layout : Layout.t;
  types : type_report list;  (* hottest first *)
  dcache : (string * int, int * int) Hashtbl.t;  (* (typ, field) -> misses, latency sum *)
  total_hotness : float;
  have_dcache : bool;
}

let build (prog : Ir.program) (leg : Legality.t) (aff : Affinity.t) ~decisions
    ~dcache : t =
  let layout = Layout.create prog.structs in
  let types =
    Affinity.graphs aff
    |> List.filter_map (fun (g : Affinity.graph) ->
           match Structs.find_opt prog.structs g.gtyp with
           | None -> None
           | Some _ ->
             let tr_info = Legality.info leg g.gtyp in
             let tr_decision =
               List.find_opt
                 (fun (d : Heuristics.decision) ->
                   String.equal d.d_typ g.gtyp)
                 decisions
             in
             Some { tr_graph = g; tr_info; tr_decision })
  in
  (* attribute matched samples to fields via the access tags *)
  let field_samples = Hashtbl.create 32 in
  let have_dcache = dcache <> None in
  (match dcache with
  | None -> ()
  | Some by_iid ->
    List.iter
      (fun (f : Ir.func) ->
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.idesc with
                | Ir.Iload (_, _, _, Some a) | Ir.Istore (_, _, _, Some a) -> (
                  match Hashtbl.find_opt by_iid i.iid with
                  | Some (st : Feedback.dstats) ->
                    let key = (a.Ir.astruct, a.afield) in
                    let m0, l0 =
                      Option.value ~default:(0, 0)
                        (Hashtbl.find_opt field_samples key)
                    in
                    Hashtbl.replace field_samples key
                      (m0 + st.misses, l0 + st.latency)
                  | None -> ())
                | _ -> ())
              b.instrs)
          f.fblocks)
      prog.funcs);
  let total_hotness =
    List.fold_left
      (fun acc tr -> acc +. Affinity.type_hotness tr.tr_graph)
      0.0 types
  in
  { prog; layout; types; dcache = field_samples; total_hotness; have_dcache }

let field_dcache t typ fi =
  match Hashtbl.find_opt t.dcache (typ, fi) with
  | None -> { fd_misses = 0; fd_latency = 0 }
  | Some (m, l) -> { fd_misses = m; fd_latency = l }

let attr_codes (info : Legality.info) =
  let a = info.attrs in
  List.filter_map
    (fun (cond, code) -> if cond then Some code else None)
    [
      (a.has_global_var, "GVAR"); (a.has_local_var, "LVAR");
      (a.has_global_ptr, "GPTR"); (a.has_local_ptr, "LPTR");
      (a.has_static_array, "SARR"); (a.dyn_alloc, "ALOC");
      (a.freed, "FREE"); (a.realloced, "RALC");
    ]

let bar10 pct =
  let n = int_of_float (Float.round (pct /. 10.0)) in
  let n = max 0 (min 10 n) in
  "|" ^ String.make n '#' ^ String.make (10 - n) '-' ^ "|"

let rw_bar reads writes =
  if reads +. writes <= 0.0 then "|........|"
  else begin
    let frac_r = reads /. (reads +. writes) in
    let nr = max 0 (min 8 (int_of_float (Float.round (frac_r *. 8.0)))) in
    let rc, wc = if reads >= writes then ('R', 'w') else ('r', 'W') in
    "|" ^ String.make nr rc ^ String.make (8 - nr) wc ^ "|"
  end

let transform_name (d : Heuristics.decision option) =
  match d with
  | Some { d_plan = Some (Heuristics.Split _); _ } -> "Splitting"
  | Some { d_plan = Some (Heuristics.Peel _); _ } -> "Peeling"
  | Some { d_plan = Some (Heuristics.Rebuild _); _ } -> "Dead field removal"
  | Some { d_plan = Some (Heuristics.Pad _); _ } -> "Padding"
  | Some { d_plan = Some (Heuristics.Pool _); _ } -> "Pooling"
  | Some { d_plan = None; _ } | None -> "none"

let report_type t buf (tr : type_report) =
  let g = tr.tr_graph in
  let decl = Structs.find t.prog.structs g.gtyp in
  let nfields = Array.length decl.fields in
  let size = Layout.struct_size t.layout g.gtyp in
  let hot_abs = Affinity.type_hotness g in
  let hottest =
    match t.types with
    | first :: _ -> Affinity.type_hotness first.tr_graph
    | [] -> 0.0
  in
  let rel = if hottest > 0.0 then 100.0 *. hot_abs /. hottest else 0.0 in
  let abs_share =
    if t.total_hotness > 0.0 then 100.0 *. hot_abs /. t.total_hotness else 0.0
  in
  let status =
    if tr.tr_info.invalid = [] then "*OK*"
    else String.concat " " (List.map Legality.reason_name tr.tr_info.invalid)
  in
  Printf.bprintf buf "Type     : %s\n" g.gtyp;
  Printf.bprintf buf "Fields   : %d, %d bytes\n" nfields size;
  Printf.bprintf buf "Hotness  : %.1f%% rel, %.1f%% abs\n" rel abs_share;
  Printf.bprintf buf "Transform: %s\n" (transform_name tr.tr_decision);
  Printf.bprintf buf "Status   : %s / %s\n" status
    (String.concat " " (attr_codes tr.tr_info));
  (* one witness per invalidation reason, so the advisory report and
     `slopt check` agree on why a type was rejected *)
  List.iter
    (fun r ->
      match
        List.find_opt
          (fun (w : Legality.witness) -> w.w_reason = r)
          tr.tr_info.witnesses
      with
      | Some w ->
        let where =
          match w.w_loc with
          | Some l -> Ir.Loc.to_string l
          | None -> "declaration"
        in
        Printf.bprintf buf "  invalid: %s at %s: %s\n" (Legality.reason_name r)
          where w.w_explain
      | None -> ())
    tr.tr_info.invalid;
  Printf.bprintf buf "%s\n" (String.make 69 '-');
  let relhot = Affinity.relative_hotness g in
  let max_miss =
    let m = ref 0 in
    for fi = 0 to nfields - 1 do
      m := max !m (field_dcache t g.gtyp fi).fd_misses
    done;
    !m
  in
  for fi = 0 to nfields - 1 do
    let fld = decl.fields.(fi) in
    let fl = Layout.field_layout t.layout g.gtyp fi in
    let usage =
      if g.reads.(fi) = 0.0 && g.writes.(fi) = 0.0 then " *unused*"
      else if g.reads.(fi) = 0.0 then " *dead*"
      else ""
    in
    Printf.bprintf buf "Field[%d] off: %d:%d %s %S%s\n" fi fl.byte_off
      fl.bit_off (bar10 relhot.(fi)) fld.name usage;
    if usage = "" then begin
      Printf.bprintf buf "  hot: %.1f%%  weight: %s\n" relhot.(fi)
        (Slo_util.Table.fnum g.hotness.(fi));
      Printf.bprintf buf "  read : %s, write: %s   %s\n"
        (Slo_util.Table.fnum g.reads.(fi))
        (Slo_util.Table.fnum g.writes.(fi))
        (rw_bar g.reads.(fi) g.writes.(fi));
      if t.have_dcache then begin
        let dc = field_dcache t g.gtyp fi in
        let miss_pct =
          if max_miss = 0 then 0.0
          else 100.0 *. float_of_int dc.fd_misses /. float_of_int max_miss
        in
        let lat_avg =
          if dc.fd_misses = 0 then 0.0
          else float_of_int dc.fd_latency /. float_of_int dc.fd_misses
        in
        Printf.bprintf buf "  miss : %d, %.1f%%, lat: %.1f [cyc]\n"
          dc.fd_misses miss_pct lat_avg
      end;
      (* uni-directional affinities, normalised per source field *)
      let edges =
        List.filter_map
          (fun fj ->
            let w = Affinity.edge_weight g fi fj in
            if w > 0.0 && fj >= fi then Some (fj, w) else None)
          (List.init nfields Fun.id)
      in
      let wmax = List.fold_left (fun m (_, w) -> max m w) 0.0 edges in
      List.iter
        (fun (fj, w) ->
          Printf.bprintf buf "  aff: %.1f%% --> %s\n"
            (if wmax > 0.0 then 100.0 *. w /. wmax else 0.0)
            decl.fields.(fj).name)
        edges
    end
  done;
  Printf.bprintf buf "\n"

let report ?only t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun tr ->
      let keep =
        match only with
        | None -> true
        | Some names -> List.mem tr.tr_graph.gtyp names
      in
      if keep then report_type t buf tr)
    t.types;
  Buffer.contents buf

let vcg t typ =
  List.find_opt (fun tr -> String.equal tr.tr_graph.gtyp typ) t.types
  |> Option.map (fun tr ->
         let g = tr.tr_graph in
         let decl = Structs.find t.prog.structs g.gtyp in
         let buf = Buffer.create 512 in
         Printf.bprintf buf "graph: { title: \"%s\"\n" typ;
         let relhot = Affinity.relative_hotness g in
         Array.iteri
           (fun fi (fld : Structs.field) ->
             let color = if relhot.(fi) >= 50.0 then "red"
               else if relhot.(fi) >= 10.0 then "orange" else "lightblue" in
             Printf.bprintf buf
               "  node: { title: \"%s\" label: \"%s (%.1f%%)\" color: %s }\n"
               fld.name fld.name relhot.(fi) color)
           decl.fields;
         let wmax =
           Hashtbl.fold (fun _ w m -> max m w) g.edges 0.0
         in
         Hashtbl.iter
           (fun (i, j) w ->
             if i <> j then
               Printf.bprintf buf
                 "  edge: { sourcename: \"%s\" targetname: \"%s\" \
                  thickness: %d }\n"
                 decl.fields.(i).name decl.fields.(j).name
                 (1 + int_of_float (if wmax > 0.0 then 4.0 *. w /. wmax else 0.0)))
           g.edges;
         Printf.bprintf buf "}\n";
         Buffer.contents buf)
