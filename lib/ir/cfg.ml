type t = {
  func : Ir.func;
  blocks : Ir.block array;
  succs : int list array;
  preds : int list array;
  rpo : int array;
  rpo_index : int array;
}

let build (f : Ir.func) : t =
  let n = f.next_block in
  let dummy =
    { Ir.bid = -1; instrs = []; btermin = Ir.Tret None;
      bloc = Slo_minic.Loc.dummy }
  in
  let blocks = Array.make n dummy in
  List.iter (fun b -> blocks.(b.Ir.bid) <- b) f.fblocks;
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun b ->
      let ss = Ir.block_succs b in
      succs.(b.Ir.bid) <- ss;
      List.iter (fun s -> preds.(s) <- b.Ir.bid :: preds.(s)) ss)
    f.fblocks;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  (* postorder DFS from the entry block *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  dfs (Ir.entry_block f);
  let rpo = Array.of_list !post in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  { func = f; blocks; succs; preds; rpo; rpo_index }

let entry t = Ir.entry_block t.func
let num_blocks t = Array.length t.blocks
let reachable t b = b >= 0 && b < Array.length t.rpo_index && t.rpo_index.(b) >= 0

let edges t =
  Array.to_list t.rpo
  |> List.concat_map (fun src -> List.map (fun dst -> (src, dst)) t.succs.(src))

let is_fp_block (b : Ir.block) =
  List.exists
    (fun (i : Ir.instr) ->
      match i.idesc with
      | Ir.Ibin (_, _, t, _, _) | Ir.Iun (_, _, t, _) | Ir.Iload (_, _, t, _)
      | Ir.Istore (_, _, t, _) ->
        Irty.is_float_ty t
      | Ir.Icast (_, from_, to_, _, _) ->
        Irty.is_float_ty from_ || Irty.is_float_ty to_
      | Ir.Imov _ | Ir.Iaddrglob _ | Ir.Iaddrlocal _ | Ir.Iaddrstr _
      | Ir.Iaddrfunc _ | Ir.Ifieldaddr _ | Ir.Iptradd _ | Ir.Icall _
      | Ir.Ialloc _ | Ir.Ifree _ | Ir.Imemset _ | Ir.Imemcpy _ ->
        false)
    b.Ir.instrs
