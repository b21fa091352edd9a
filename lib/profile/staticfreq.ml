type probs = { loop_int : float; loop_fp : float }

let default_probs = { loop_int = 0.88; loop_fp = 0.93 }
let modified_probs = { loop_int = 0.95; loop_fp = 0.98 }

type t = {
  bfreq : float array;
  efreq : int * int -> float;
  eprob : int * int -> float;
}

let estimate ?(probs = default_probs) (cfg : Cfg.t) (forest : Loop.forest) : t =
  let nb = Cfg.num_blocks cfg in
  (* per loop header: the loop's blocks (nested loops included) as a
     membership array, and its staying probability *)
  let facts = Array.make nb ([||], 0.0) in
  List.iter
    (fun (l : Loop.loop) ->
      let blocks = Loop.all_blocks l in
      let mem = Array.make nb false in
      List.iter (fun b -> mem.(b) <- true) blocks;
      let fp = List.exists (fun b -> Cfg.is_fp_block cfg.blocks.(b)) blocks in
      facts.(l.header) <- (mem, if fp then probs.loop_fp else probs.loop_int))
    (Loop.all_loops forest);
  (* per-edge branch probability *)
  let prob_tbl = Hashtbl.create 32 in
  Array.iter
    (fun bid ->
      let b = cfg.blocks.(bid) in
      match b.Ir.btermin with
      | Ir.Tjmp d -> Hashtbl.replace prob_tbl (bid, d) 1.0
      | Ir.Tret _ -> ()
      | Ir.Tbr (_, x, y) ->
        if x = y then Hashtbl.replace prob_tbl (bid, x) 1.0
        else begin
          let stay_prob =
            match Loop.innermost forest bid with
            | None -> None
            | Some l -> (
              let mem, p = facts.(l.header) in
              match (mem.(x), mem.(y)) with
              | true, false -> Some (x, p)
              | false, true -> Some (y, p)
              | true, true | false, false -> None)
          in
          match stay_prob with
          | Some (stay, p) ->
            let other = if stay = x then y else x in
            Hashtbl.replace prob_tbl (bid, stay) p;
            Hashtbl.replace prob_tbl (bid, other) (1.0 -. p)
          | None ->
            Hashtbl.replace prob_tbl (bid, x) 0.5;
            Hashtbl.replace prob_tbl (bid, y) 0.5
        end)
    cfg.rpo;
  let eprob e = Option.value ~default:0.0 (Hashtbl.find_opt prob_tbl e) in
  (* Gauss-Seidel over the flow equations. Each block's predecessors (in
     [cfg.preds] order) and their edge probabilities are read into arrays
     once, so a sweep does the same float operations in the same order
     without a table lookup. *)
  let preds = Array.map Array.of_list cfg.preds in
  let pprob = Array.mapi (fun b ps -> Array.map (fun p -> eprob (p, b)) ps) preds in
  let bfreq = Array.make nb 0.0 in
  let entry = Cfg.entry cfg in
  let max_iter = 300 and tol = 1e-12 in
  let iter = ref 0 and delta = ref infinity in
  while !iter < max_iter && !delta > tol do
    delta := 0.0;
    for k = 0 to Array.length cfg.rpo - 1 do
      let bid = cfg.rpo.(k) in
      let ps = preds.(bid) and pr = pprob.(bid) in
      let inflow = ref 0.0 in
      for j = 0 to Array.length ps - 1 do
        inflow := !inflow +. (bfreq.(ps.(j)) *. pr.(j))
      done;
      let v = if bid = entry then 1.0 +. !inflow else !inflow in
      let d = Float.abs (v -. bfreq.(bid)) in
      (* [delta := max !delta d], without the polymorphic compare *)
      if not (!delta >= d) then delta := d;
      bfreq.(bid) <- v
    done;
    incr iter
  done;
  let efreq (s, d) = bfreq.(s) *. eprob (s, d) in
  { bfreq; efreq; eprob }
