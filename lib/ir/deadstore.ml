type store = {
  ds_struct : string;
  ds_field : int;
  ds_fn : string;
  ds_iid : int;
  ds_loc : Ir.Loc.t;
  ds_never_read : bool;
}

(* Sets of interned field ids. Word [k] holds ids [k * w] to
   [k * w + w - 1], and words past the end of an array are zero, so a
   set built before a later id was interned stays valid. A set is never
   mutated once built, and a union that adds nothing returns one of its
   arguments, so the solve allocates only where a fact grows. *)
module Bits = struct
  type t = int array

  let w = Sys.int_size
  let empty : t = [||]
  let word (s : t) k = if k < Array.length s then s.(k) else 0
  let mem s i = word s (i / w) land (1 lsl (i mod w)) <> 0

  let subset a b =
    let rec go k = k < 0 || (a.(k) land lnot (word b k) = 0 && go (k - 1)) in
    go (Array.length a - 1)

  let equal a b = subset a b && subset b a

  let union a b =
    if subset b a then a
    else if subset a b then b
    else
      Array.init (max (Array.length a) (Array.length b)) (fun k ->
          word a k lor word b k)

  let add s i =
    if mem s i then s
    else begin
      let k = i / w in
      let s' = Array.make (max (Array.length s) (k + 1)) 0 in
      Array.blit s 0 s' 0 (Array.length s);
      s'.(k) <- s'.(k) lor (1 lsl (i mod w));
      s'
    end

  (* ids [lo, lo + n) *)
  let range lo n =
    let s = Array.make ((lo + n + w - 1) / w) 0 in
    for i = lo to lo + n - 1 do
      s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))
    done;
    s
end

module Flow = Dataflow.Make (struct
  type t = Bits.t

  let bottom = Bits.empty
  let equal = Bits.equal
  let join = Bits.union
end)

(* a declared struct's fields are the ids [base, base + count) *)
type sinfo = { base : int; count : int; all : Bits.t }

let no_struct = { base = 0; count = 0; all = Bits.empty }

let analyze (prog : Ir.program) : store list =
  (* intern every declared (struct, field) pair once; a pair an access
     tag names without a declaration gets the next id when first met *)
  let structs = Hashtbl.create 16 in
  let n = ref 0 in
  Structs.iter
    (fun d ->
      let count = Array.length d.fields in
      Hashtbl.replace structs d.sname { base = !n; count; all = Bits.range !n count };
      n := !n + count)
    prog.structs;
  let universe = Bits.range 0 !n in
  let extra = Hashtbl.create 1 in
  (* consecutive accesses mostly name one struct *)
  let last_s = ref "" and last_i = ref no_struct in
  let info s =
    if not (String.equal s !last_s) then begin
      last_s := s;
      last_i :=
        (match Hashtbl.find structs s with i -> i | exception Not_found -> no_struct)
    end;
    !last_i
  in
  let id s fi =
    let i = info s in
    if fi >= 0 && fi < i.count then i.base + fi
    else
      match Hashtbl.find extra (s, fi) with
      | k -> k
      | exception Not_found ->
        let k = !n in
        incr n;
        Hashtbl.replace extra (s, fi) k;
        k
  in
  let funcs = Array.of_list prog.funcs in
  let index = Hashtbl.create 16 in
  Array.iteri (fun k (f : Ir.func) -> Hashtbl.replace index f.fname k) funcs;
  let callee_index = function
    | Ir.Cdirect n -> Hashtbl.find_opt index n
    | Ir.Cbuiltin _ | Ir.Cextern _ | Ir.Cindirect _ -> None
  in
  (* one scan per function: the fields it reads (tagged loads, struct
     memcpy/memset), its defined callees, whether it calls outside the
     program; and, program-wide, the fields whose address escapes a
     plain load/store addressing position and the fields of struct types
     handed to outside calls *)
  let nf = Array.length funcs in
  let reads = Array.make nf Bits.empty in
  let callees = Array.make nf [] in
  let ext_call = Array.make nf false in
  let escaping = ref Bits.empty and ext_structs = ref Bits.empty in
  Array.iteri
    (fun k (f : Ir.func) ->
      (* the field whose address a register holds, or -1 *)
      let fieldaddr = Array.make f.next_reg (-1) in
      let escape (o : Ir.operand) =
        match o with
        | Ir.Oreg r when fieldaddr.(r) >= 0 ->
          escaping := Bits.add !escaping fieldaddr.(r)
        | Ir.Oreg _ | Ir.Oimm _ | Ir.Ofimm _ -> ()
      in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              (match i.idesc with
              | Ir.Ifieldaddr (r, _, s, fi) -> fieldaddr.(r) <- id s fi
              | Ir.Iload (_, _, _, Some a) ->
                reads.(k) <- Bits.add reads.(k) (id a.astruct a.afield)
              | Ir.Imemcpy (_, _, _, Some s) | Ir.Imemset (_, _, _, Some s) ->
                reads.(k) <- Bits.union reads.(k) (info s).all
              | Ir.Icall (_, callee, args) -> (
                match callee_index callee with
                | Some c -> callees.(k) <- c :: callees.(k)
                | None ->
                  ext_call.(k) <- true;
                  List.iter
                    (fun (arg : Ir.operand) ->
                      match arg with
                      | Ir.Oreg r -> (
                        match Irty.pointee_struct (Ir.reg_ty f r) with
                        | Some s -> ext_structs := Bits.union !ext_structs (info s).all
                        | None -> ())
                      | Ir.Oimm _ | Ir.Ofimm _ -> ())
                    args)
              | _ -> ());
              (* any use of a field address outside load/store addressing
                 means the field may be read through a pointer we no
                 longer see *)
              match i.idesc with
              | Ir.Iload (_, _, _, _) -> ()  (* the address operand is the access *)
              | Ir.Istore (_, v, _, _) -> escape v
              | _ -> Ir.iter_used_operands escape i)
            b.instrs;
          match b.btermin with
          | Ir.Tbr (o, _, _) | Ir.Tret (Some o) -> escape o
          | Ir.Tret None | Ir.Tjmp _ -> ())
        f.fblocks)
    funcs;
  (* what the world outside the analysed functions may read *)
  let ext_read = Bits.union !ext_structs !escaping in
  (* transitive may-read summaries, callees before callers: an SCC's
     functions share one summary *)
  let summary = Array.make nf Bits.empty in
  List.iter
    (fun scc ->
      let ks = List.map (Hashtbl.find index) scc in
      let s =
        List.fold_left
          (fun acc k ->
            let own = if ext_call.(k) then Bits.union reads.(k) ext_read else reads.(k) in
            List.fold_left
              (fun acc c -> Bits.union acc summary.(c))
              (Bits.union acc own) callees.(k))
          Bits.empty ks
      in
      List.iter (fun k -> summary.(k) <- s) ks)
    (List.rev (Callgraph.sccs_topological (Callgraph.build prog)));
  let always_live = ext_read in
  let global_reads = Array.fold_left Bits.union always_live reads in
  (* the fields an instruction may read; every transfer only adds *)
  let transfer fact (i : Ir.instr) =
    match i.idesc with
    | Ir.Iload (_, _, _, Some a) -> Bits.add fact (id a.astruct a.afield)
    | Ir.Imemcpy (_, _, _, Some s) | Ir.Imemset (_, _, _, Some s) ->
      Bits.union fact (info s).all
    | Ir.Icall (_, callee, _) -> (
      match callee_index callee with
      | Some c -> Bits.union fact summary.(c)
      | None -> Bits.union fact ext_read)
    | _ -> fact
  in
  let out = ref [] in
  Array.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      let gen = Array.make (Cfg.num_blocks cfg) Bits.empty in
      List.iter
        (fun (b : Ir.block) -> gen.(b.bid) <- List.fold_left transfer Bits.empty b.instrs)
        f.fblocks;
      let exit_seed =
        if String.equal f.fname "main" then Bits.empty else universe
      in
      let sol =
        Flow.backward cfg ~init:exit_seed ~transfer:(fun b out_f ->
            Bits.union out_f gen.(b.bid))
      in
      (* replay a block backwards from its exit fact, checking each
         tagged store against the fact after it *)
      let rec replay (b : Ir.block) = function
        | [] -> sol.after.(b.bid)
        | (i : Ir.instr) :: rest ->
          let fact = replay b rest in
          (match i.idesc with
          | Ir.Istore (_, _, _, Some a) ->
            let sf = id a.astruct a.afield in
            if (not (Bits.mem fact sf)) && not (Bits.mem always_live sf) then
              out :=
                {
                  ds_struct = a.astruct;
                  ds_field = a.afield;
                  ds_fn = f.fname;
                  ds_iid = i.iid;
                  ds_loc = i.iloc;
                  ds_never_read = not (Bits.mem global_reads sf);
                }
                :: !out
          | _ -> ());
          transfer fact i
      in
      List.iter
        (fun (b : Ir.block) ->
          if
            List.exists
              (fun (i : Ir.instr) ->
                match i.idesc with Ir.Istore (_, _, _, Some _) -> true | _ -> false)
              b.instrs
          then ignore (replay b b.instrs))
        f.fblocks)
    funcs;
  List.sort
    (fun a b ->
      match String.compare a.ds_fn b.ds_fn with
      | 0 -> Int.compare a.ds_iid b.ds_iid
      | c -> c)
    !out

let never_read_fields stores =
  List.filter_map
    (fun d -> if d.ds_never_read then Some (d.ds_struct, d.ds_field) else None)
    stores
  |> List.sort_uniq compare
