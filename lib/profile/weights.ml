type scheme =
  | PBO | PPBO | SPBO | ISPBO | ISPBO_NO | ISPBO_W | DMISS | DLAT | DMISS_NO

let all = [ PBO; PPBO; SPBO; ISPBO; ISPBO_NO; ISPBO_W; DMISS; DLAT; DMISS_NO ]

let name = function
  | PBO -> "PBO"
  | PPBO -> "PPBO"
  | SPBO -> "SPBO"
  | ISPBO -> "ISPBO"
  | ISPBO_NO -> "ISPBO.NO"
  | ISPBO_W -> "ISPBO.W"
  | DMISS -> "DMISS"
  | DLAT -> "DLAT"
  | DMISS_NO -> "DMISS.NO"

let is_dcache = function
  | DMISS | DLAT | DMISS_NO -> true
  | PBO | PPBO | SPBO | ISPBO | ISPBO_NO | ISPBO_W -> false

let needs_profile = function
  | PBO | PPBO | DMISS | DLAT | DMISS_NO -> true
  | SPBO | ISPBO | ISPBO_NO | ISPBO_W -> false

type block_weights = (string, float array) Hashtbl.t

let from_profile (prog : Ir.program) fb : block_weights =
  let matched = Matching.apply prog fb in
  let out = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      match Matching.func_counts matched f.fname with
      | Some c -> Hashtbl.replace out f.fname c.block
      | None -> Hashtbl.replace out f.fname (Array.make f.next_block 0.0))
    prog.funcs;
  out

let static_locals ?probs (prog : Ir.program) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      let forest = Loop.compute cfg in
      Hashtbl.replace tbl f.fname (Staticfreq.estimate ?probs cfg forest))
    prog.funcs;
  tbl

let from_static ?probs ~interprocedural ~exponent (prog : Ir.program) : block_weights =
  let locals = static_locals ?probs prog in
  let out = Hashtbl.create 16 in
  if not interprocedural then
    List.iter
      (fun (f : Ir.func) ->
        let sf : Staticfreq.t = Hashtbl.find locals f.fname in
        Hashtbl.replace out f.fname sf.bfreq)
      prog.funcs
  else begin
    let cg = Callgraph.build prog in
    let ips =
      Ipscale.compute prog ~local:(fun name -> Hashtbl.find locals name) cg
    in
    List.iter
      (fun (f : Ir.func) ->
        Hashtbl.replace out f.fname
          (Ipscale.scaled_block_counts ~exponent ips f.fname))
      prog.funcs
  end;
  out

let block_weights prog scheme ~feedback : block_weights =
  match scheme with
  | PBO | PPBO -> (
    match feedback with
    | Some fb -> from_profile prog fb
    | None ->
      invalid_arg
        (Printf.sprintf "Weights.block_weights: %s needs a feedback file"
           (name scheme)))
  | SPBO -> from_static ~interprocedural:false ~exponent:1.0 prog
  | ISPBO ->
    from_static ~interprocedural:true ~exponent:Ipscale.default_exponent prog
  | ISPBO_NO -> from_static ~interprocedural:true ~exponent:1.0 prog
  | ISPBO_W ->
    from_static ~probs:Staticfreq.modified_probs ~interprocedural:true
      ~exponent:1.0 prog
  | DMISS | DLAT | DMISS_NO ->
    invalid_arg
      (Printf.sprintf
         "Weights.block_weights: %s attributes samples to fields, not blocks"
         (name scheme))
