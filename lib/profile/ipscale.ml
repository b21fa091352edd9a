let default_exponent = 1.5
let recursion_factor = 2.0

type t = {
  ng : (string, float) Hashtbl.t;
  locals : (string, Staticfreq.t) Hashtbl.t;
  prog : Ir.program;
}

let compute (prog : Ir.program) ~local (cg : Callgraph.t) : t =
  let locals = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace locals f.Ir.fname (local f.Ir.fname))
    prog.funcs;
  let ng = Hashtbl.create 16 in
  let get_ng f = Option.value ~default:0.0 (Hashtbl.find_opt ng f) in
  (* process SCCs callers-first; all inflow into an SCC is known when we
     reach it *)
  let sccs = Callgraph.sccs_topological cg in
  List.iter
    (fun scc ->
      let in_scc f = List.mem f scc in
      (* external inflow into each member *)
      let inflow = Hashtbl.create 4 in
      List.iter
        (fun f ->
          let base = if String.equal f "main" then 1.0 else 0.0 in
          let from_callers =
            List.fold_left
              (fun acc (cs : Callgraph.call_site) ->
                if in_scc cs.cs_caller then acc
                else
                  let caller_local : Staticfreq.t =
                    Hashtbl.find locals cs.cs_caller
                  in
                  let e_loc =
                    if cs.cs_block < Array.length caller_local.bfreq then
                      caller_local.bfreq.(cs.cs_block)
                    else 0.0
                  in
                  acc +. (e_loc *. get_ng cs.cs_caller))
              0.0 (Callgraph.callers_of cg f)
          in
          Hashtbl.replace inflow f (base +. from_callers))
        scc;
      let cyclic =
        match scc with
        | [ f ] ->
          (* self-recursion counts as a cycle *)
          List.exists
            (fun (cs : Callgraph.call_site) -> String.equal cs.cs_caller f)
            (Callgraph.callers_of cg f)
        | _ -> true
      in
      if not cyclic then
        List.iter (fun f -> Hashtbl.replace ng f (Hashtbl.find inflow f)) scc
      else begin
        (* condense: total external inflow, spread with the recursion
           factor *)
        let total =
          List.fold_left (fun acc f -> acc +. Hashtbl.find inflow f) 0.0 scc
        in
        List.iter
          (fun f -> Hashtbl.replace ng f (total *. recursion_factor))
          scc
      end)
    sccs;
  (* unreached but address-taken functions may run via indirect calls *)
  List.iter
    (fun (f : Ir.func) ->
      if get_ng f.fname = 0.0 && Callgraph.address_taken cg f.fname then
        Hashtbl.replace ng f.fname 1.0)
    prog.funcs;
  { ng; locals; prog }

let global_count t f = Option.value ~default:0.0 (Hashtbl.find_opt t.ng f)

let scaled_block_counts ?(exponent = default_exponent) t fname =
  let lf : Staticfreq.t = Hashtbl.find t.locals fname in
  let s = global_count t fname in
  let factor = if s <= 0.0 then 0.0 else Float.pow s exponent in
  Array.map (fun c -> c *. factor) lf.bfreq
