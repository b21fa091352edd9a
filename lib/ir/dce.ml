let removable (i : Ir.instr) =
  match i.idesc with
  | Ir.Imov _ | Ir.Ibin _ | Ir.Iun _ | Ir.Icast _ | Ir.Iaddrglob _
  | Ir.Iaddrlocal _ | Ir.Iaddrstr _ | Ir.Iaddrfunc _ | Ir.Ifieldaddr _
  | Ir.Iptradd _ | Ir.Iload _ ->
    true
  | Ir.Istore _ | Ir.Icall _ | Ir.Ialloc _ | Ir.Ifree _ | Ir.Imemset _
  | Ir.Imemcpy _ ->
    false

let cleanup (f : Ir.func) : int =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let used = Array.make f.next_reg false in
    let mark_op = function
      | Ir.Oreg r -> used.(r) <- true
      | Ir.Oimm _ | Ir.Ofimm _ -> ()
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter (Ir.iter_used_operands mark_op) b.instrs;
        match b.btermin with
        | Ir.Tbr (o, _, _) -> mark_op o
        | Ir.Tret (Some o) -> mark_op o
        | Ir.Tret None | Ir.Tjmp _ -> ())
      f.fblocks;
    List.iter
      (fun (b : Ir.block) ->
        let keep, drop =
          List.partition
            (fun i ->
              match Ir.defined_reg i with
              | Some r when removable i -> used.(r)
              | Some _ | None -> true)
            b.instrs
        in
        if drop <> [] then begin
          b.instrs <- keep;
          removed := !removed + List.length drop;
          changed := true
        end)
      f.fblocks
  done;
  !removed
