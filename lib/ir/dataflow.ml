module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  type result = { before : L.t array; after : L.t array }

  (* Round-robin sweeps in (reverse) rpo until no boundary fact moves.
     The roster programs have tens of blocks per function, so a priority
     worklist would buy nothing over the cache-friendly sweep. A lattice
     of interned ids held as bitsets (see Deadstore) makes [join] and
     [equal] a few word operations. *)

  let forward (cfg : Cfg.t) ~(init : L.t) ~transfer : result =
    let n = Cfg.num_blocks cfg in
    let before = Array.make n L.bottom and after = Array.make n L.bottom in
    let entry = Cfg.entry cfg in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun bid ->
          let in_f =
            List.fold_left
              (fun acc p -> L.join acc after.(p))
              (if bid = entry then init else L.bottom)
              cfg.preds.(bid)
          in
          let out_f = transfer cfg.blocks.(bid) in_f in
          if not (L.equal in_f before.(bid) && L.equal out_f after.(bid)) then
            changed := true;
          before.(bid) <- in_f;
          after.(bid) <- out_f)
        cfg.rpo
    done;
    { before; after }

  let backward (cfg : Cfg.t) ~(init : L.t) ~transfer : result =
    let n = Cfg.num_blocks cfg in
    let before = Array.make n L.bottom and after = Array.make n L.bottom in
    let order =
      let k = Array.length cfg.rpo in
      Array.init k (fun i -> cfg.rpo.(k - 1 - i))
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun bid ->
          let out_f =
            match cfg.succs.(bid) with
            | [] -> init
            | ss ->
              List.fold_left (fun acc s -> L.join acc before.(s)) L.bottom ss
          in
          let in_f = transfer cfg.blocks.(bid) out_f in
          if not (L.equal in_f before.(bid) && L.equal out_f after.(bid)) then
            changed := true;
          before.(bid) <- in_f;
          after.(bid) <- out_f)
        order
    done;
    { before; after }
end
