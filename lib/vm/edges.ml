(* The PBO edge-profile table: one dense counter array per function.

   Slot [(src + 1) * nblocks + dst] counts the taken edge [src -> dst];
   row 0 ([src = -1]) counts function entries at the entry block. The
   backends resolve a function's row once, when they prepare the
   program, so a counted edge is one increment of a precomputed slot —
   no closure call and no name lookup on the hot path. *)

type row = { nblocks : int; counts : int array }
type t = (string, row) Hashtbl.t

(* a name defined twice resolves to its last definition, as calls do *)
let create (prog : Ir.program) : t =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      let nb = f.next_block in
      Hashtbl.replace t f.fname
        { nblocks = nb; counts = Array.make ((nb + 1) * nb) 0 })
    prog.funcs;
  t

let row t fname = Hashtbl.find_opt t fname
let slot r ~src ~dst = ((src + 1) * r.nblocks) + dst

let bump r ~src ~dst =
  let i = slot r ~src ~dst in
  r.counts.(i) <- r.counts.(i) + 1
