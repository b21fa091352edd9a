type split_spec = {
  s_typ : string;
  s_hot : int list;
  s_cold : int list;
  s_dead : int list;
}

type peel_spec = {
  p_typ : string;
  p_live : int list;
  p_dead : int list;
  p_globals : string list;
}

type rebuild_spec = { r_typ : string; r_order : int list; r_dead : int list }
type pad_spec = { pd_typ : string; pd_bytes : int }

type pool_spec = { po_typ : string; po_links : int list }

type plan =
  | Split of split_spec
  | Peel of peel_spec
  | Rebuild of rebuild_spec
  | Pad of pad_spec
  | Pool of pool_spec

let link_field_name = "__link"
let pad_field_name = "__pad"
let hot_name s = s ^ "__hot"
let cold_name s = s ^ "__cold"
let piece_name s f = s ^ "__" ^ f
let piece_global g f = g ^ "__" ^ f
let pool_struct_name s = s ^ "__pool"
let pool_anchor_name target = "__pool_" ^ target

(* ------------------------------------------------------------------ *)
(* Type substitution                                                   *)
(* ------------------------------------------------------------------ *)

let rec subst_ty ~from_ ~to_ (t : Irty.t) : Irty.t =
  match t with
  | Irty.Struct s when String.equal s from_ -> Irty.Struct to_
  | Irty.Ptr u -> Irty.Ptr (subst_ty ~from_ ~to_ u)
  | Irty.Array (u, n) -> Irty.Array (subst_ty ~from_ ~to_ u, n)
  | Irty.Struct _ | Irty.Void | Irty.Char | Irty.Short | Irty.Int
  | Irty.Long | Irty.Float | Irty.Double | Irty.Funptr ->
    t

(* [Ptr (Struct typ)] becomes a plain element index. Long and pointers
   are both 8 bytes in the VM, so retyping changes no enclosing layout
   (e.g. arc.tail/head cells keep their offsets). *)
let rec subst_ptr_ty ~typ (t : Irty.t) : Irty.t =
  match t with
  | Irty.Ptr (Irty.Struct x) when String.equal x typ -> Irty.Long
  | Irty.Ptr u -> Irty.Ptr (subst_ptr_ty ~typ u)
  | Irty.Array (u, n) -> Irty.Array (subst_ptr_ty ~typ u, n)
  | Irty.Struct _ | Irty.Void | Irty.Char | Irty.Short | Irty.Int
  | Irty.Long | Irty.Float | Irty.Double | Irty.Funptr ->
    t

(* apply [s] to every type annotation of the program: globals, locals,
   params, returns, other structs' fields, and instruction type fields *)
let map_types (prog : Ir.program) (s : Irty.t -> Irty.t) =
  prog.globals <-
    List.map (fun (n, t, init) -> (n, s t, init)) prog.globals;
  Structs.iter
    (fun d ->
      let changed = ref false in
      let fields =
        Array.to_list d.fields
        |> List.map (fun (f : Structs.field) ->
               let t' = s f.ty in
               if not (Irty.equal t' f.ty) then changed := true;
               { f with Structs.ty = t' })
      in
      if !changed then Structs.define prog.structs d.sname fields)
    prog.structs;
  List.iter
    (fun (f : Ir.func) ->
      f.flocals <- List.map (fun (n, t) -> (n, s t)) f.flocals;
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Iload (r, a, ty, acc) -> i.idesc <- Ir.Iload (r, a, s ty, acc)
              | Ir.Istore (a, v, ty, acc) -> i.idesc <- Ir.Istore (a, v, s ty, acc)
              | Ir.Icast (r, ft, tt, v, ci) ->
                i.idesc <- Ir.Icast (r, s ft, s tt, v, ci)
              | Ir.Iptradd (r, b2, idx, ty) ->
                i.idesc <- Ir.Iptradd (r, b2, idx, s ty)
              | Ir.Ialloc (r, k, n, ty) -> i.idesc <- Ir.Ialloc (r, k, n, s ty)
              | Ir.Ibin (r, op, ty, a, b2) ->
                i.idesc <- Ir.Ibin (r, op, s ty, a, b2)
              | Ir.Iun (r, op, ty, a) -> i.idesc <- Ir.Iun (r, op, s ty, a)
              | Ir.Imov _ | Ir.Iaddrglob _ | Ir.Iaddrlocal _ | Ir.Iaddrstr _
              | Ir.Iaddrfunc _ | Ir.Ifieldaddr _ | Ir.Icall _ | Ir.Ifree _
              | Ir.Imemset _ | Ir.Imemcpy _ ->
                ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  (* parameters and return types are immutable record fields: rebuild *)
  prog.funcs <-
    List.map
      (fun (f : Ir.func) ->
        { f with
          Ir.fparams = List.map (fun (n, t) -> (n, s t)) f.fparams;
          fret = s f.fret })
      prog.funcs

(* an action-based per-block instruction rewriter *)
type action = Keep | Drop | Replace of Ir.instr list

let rewrite_instrs (f : Ir.func) (decide : Ir.instr -> action) =
  List.iter
    (fun (b : Ir.block) ->
      b.instrs <-
        List.concat_map
          (fun i ->
            match decide i with
            | Keep -> [ i ]
            | Drop -> []
            | Replace is -> is)
          b.instrs)
    f.fblocks

let mk_instr prog loc desc = { Ir.iid = Ir.fresh_iid prog; iloc = loc; idesc = desc }

(* ------------------------------------------------------------------ *)
(* Peeling's anchor tracing                                            *)
(* ------------------------------------------------------------------ *)

(* definition map: register -> defining instruction (None when multiply
   defined or a parameter of a join) *)
let def_map (f : Ir.func) : Ir.instr option array =
  let defs = Array.make f.next_reg None in
  let multi = Array.make f.next_reg false in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match Ir.defined_reg i with
          | Some r ->
            if defs.(r) <> None then multi.(r) <- true;
            defs.(r) <- Some i
          | None -> ())
        b.instrs)
    f.fblocks;
  Array.mapi (fun r d -> if multi.(r) then None else d) defs

let use_map (f : Ir.func) : Ir.instr list array =
  let uses = Array.make f.next_reg [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          Ir.iter_used_operands
            (function
              | Ir.Oreg r -> uses.(r) <- i :: uses.(r)
              | Ir.Oimm _ | Ir.Ofimm _ -> ())
            i)
        b.instrs)
    f.fblocks;
  uses

let rec ty_mentions s (t : Irty.t) =
  match t with
  | Irty.Struct x -> String.equal x s
  | Irty.Ptr u | Irty.Array (u, _) -> ty_mentions s u
  | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long | Irty.Float
  | Irty.Double | Irty.Funptr ->
    false

(* trace the anchor global of a field-access base register:
   b = Iptradd(p, idx, S) / p = Iload(addr g) / direct load *)
let trace_base defs (b : Ir.operand) ~typ : (string * Ir.operand option) option =
  let def = function
    | Ir.Oreg r -> defs.(r)
    | Ir.Oimm _ | Ir.Ofimm _ -> None
  in
  let global_of_load (li : Ir.instr option) =
    match li with
    | Some { Ir.idesc = Ir.Iload (_, ga, Irty.Ptr (Irty.Struct s'), _); _ }
      when String.equal s' typ -> (
      match def ga with
      | Some { Ir.idesc = Ir.Iaddrglob (_, g); _ } -> Some g
      | Some _ | None -> None)
    | Some _ | None -> None
  in
  match def b with
  | Some { Ir.idesc = Ir.Iptradd (_, p, idx, Irty.Struct s'); _ }
    when String.equal s' typ -> (
    match global_of_load (def p) with
    | Some g -> Some (g, Some idx)
    | None -> None)
  | d -> (
    match global_of_load d with
    | Some g -> Some (g, None)
    | None -> None)

(* trace an allocation chain: value stored = alloc result, possibly through
   casts; the allocation's kind and count *)
let rec trace_alloc defs (v : Ir.operand) ~typ =
  match v with
  | Ir.Oimm _ | Ir.Ofimm _ -> None
  | Ir.Oreg r -> (
    match defs.(r) with
    | Some { Ir.idesc = Ir.Ialloc (_, kind, count, Irty.Struct s'); _ }
      when String.equal s' typ ->
      Some (kind, count)
    | Some { Ir.idesc = Ir.Icast (_, _, _, src, _); _ } ->
      trace_alloc defs src ~typ
    | Some _ | None -> None)

let peel_feasible (prog : Ir.program) ~typ ~globals : bool =
  let in_g g = List.mem g globals in
  let ok = ref (globals <> []) in
  (* the type may not be referenced from any struct's field, its own
     included (a self link) *)
  Structs.iter
    (fun d ->
      Array.iter
        (fun (fl : Structs.field) -> if ty_mentions typ fl.ty then ok := false)
        d.fields)
    prog.structs;
  List.iter
    (fun (n, t, _) -> if (not (in_g n)) && ty_mentions typ t then ok := false)
    prog.globals;
  List.iter
    (fun (f : Ir.func) ->
      if ty_mentions typ f.fret then ok := false;
      List.iter (fun (_, t) -> if ty_mentions typ t then ok := false) f.fparams;
      List.iter (fun (_, t) -> if ty_mentions typ t then ok := false) f.flocals;
      let defs = def_map f in
      let uses = use_map f in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Ifieldaddr (_, base, s', _) when String.equal s' typ ->
                if trace_base defs base ~typ = None then ok := false
              | Ir.Ialloc (r, _, _, Irty.Struct s') when String.equal s' typ ->
                (* result must flow, through casts only, into exactly one
                   store to an anchor global *)
                let rec check_uses reg depth =
                  if depth > 4 then ok := false
                  else
                    List.iter
                      (fun (u : Ir.instr) ->
                        match u.idesc with
                        | Ir.Icast (r2, _, _, Ir.Oreg r', _) when r' = reg ->
                          check_uses r2 (depth + 1)
                        | Ir.Istore (addr, Ir.Oreg r', _, _) when r' = reg -> (
                          match addr with
                          | Ir.Oreg ar -> (
                            match defs.(ar) with
                            | Some { Ir.idesc = Ir.Iaddrglob (_, g); _ }
                              when in_g g ->
                              ()
                            | Some _ | None -> ok := false)
                          | Ir.Oimm _ | Ir.Ofimm _ -> ok := false)
                        | _ -> ok := false)
                      uses.(reg)
                in
                check_uses r 0
              | Ir.Iload (r, ga, Irty.Ptr (Irty.Struct s'), _)
                when String.equal s' typ -> (
                match
                  match ga with
                  | Ir.Oreg gar -> defs.(gar)
                  | Ir.Oimm _ | Ir.Ofimm _ -> None
                with
                | Some { Ir.idesc = Ir.Iaddrglob (_, g); _ } when in_g g ->
                  (* uses of the loaded anchor pointer *)
                  List.iter
                    (fun (u : Ir.instr) ->
                      match u.idesc with
                      | Ir.Iptradd (pr, Ir.Oreg r', _, Irty.Struct s2)
                        when r' = r && String.equal s2 typ ->
                        (* the ptradd may feed field addresses only *)
                        List.iter
                          (fun (u2 : Ir.instr) ->
                            match u2.idesc with
                            | Ir.Ifieldaddr (_, Ir.Oreg b', s3, _)
                              when b' = pr && String.equal s3 typ ->
                              ()
                            | _ -> ok := false)
                          uses.(pr)
                      | Ir.Ifieldaddr (_, Ir.Oreg b', s2, _)
                        when b' = r && String.equal s2 typ ->
                        ()
                      | Ir.Ifree (Ir.Oreg r') when r' = r -> ()
                      | Ir.Ibin (_, (Ir.Eq | Ir.Ne), _, _, _) -> ()
                      | _ -> ok := false)
                    uses.(r)
                | Some _ | None -> ok := false)
              | _ -> ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  !ok

(* ------------------------------------------------------------------ *)
(* Layout maps                                                         *)
(* ------------------------------------------------------------------ *)

(* Every plan compiles to a layout map of its struct: where each old
   field goes, and how an access reaches it from a pointer to the old
   struct. One rewrite (below) then applies any map. *)

type anchor =
  | Companion of string
      (** peel: the companion [G__name] of the anchor global [G] the
          base was loaded from, at the element index the base was
          computed with ({!trace_base}) *)
  | Global of string  (** pool: this global, indexed by the base itself *)

type path =
  | Direct  (** the base itself: rebuild, pad, split's hot part *)
  | Link of string * int
      (** the link field (hot struct, index) the base holds: split's
          cold part *)
  | Anchor of anchor

type slot = Dead | Moved of string * int * path  (** piece, new index, path *)

(* what becomes of an allocation of the old struct *)
type alloc =
  | Same  (** rebuild, pad: the size follows the layout *)
  | Linked of string * string * int
      (** split (hot, cold, link): both parts, and a loop linking them *)
  | At_anchor of string list
      (** peel: dropped, and fanned out per piece at each store into one
          of these anchor globals *)
  | Pooled  (** pool: fanned out per piece; the pointer becomes index 0 *)

(* what a [struct typ *] value becomes once the old struct is gone *)
type pointer = Kept | Renamed of string | Index

type layout = {
  typ : string;
  slots : slot array;  (** one per old field *)
  pieces : (string * path) list;  (** fan-out order of allocs and frees *)
  alloc : alloc;
  pointer : pointer;
}

(* the one lookup behind every plan *)
let find_struct (prog : Ir.program) kind typ =
  match Structs.find_opt prog.structs typ with
  | Some d -> d
  | None ->
    invalid_arg (Printf.sprintf "Transform.%s: unknown struct %s" kind typ)

let place slots piece path fis =
  List.iteri (fun ni oi -> slots.(oi) <- Moved (piece, ni, path)) fis

let allocation_sites (prog : Ir.program) typ =
  List.fold_left
    (fun acc (f : Ir.func) ->
      List.fold_left
        (fun acc (b : Ir.block) ->
          List.fold_left
            (fun acc (i : Ir.instr) ->
              match i.idesc with
              | Ir.Ialloc (_, _, _, Irty.Struct s') when String.equal s' typ ->
                acc + 1
              | _ -> acc)
            acc b.instrs)
        acc f.fblocks)
    0 prog.funcs

(* Compile a plan into its layout map, defining the new structs and
   globals on the way. *)
let layout_of (prog : Ir.program) (plan : plan) : layout =
  let define = Structs.define prog.structs in
  match plan with
  | Split sp ->
    let s = sp.s_typ in
    let decl = find_struct prog "split" s in
    let field i = decl.fields.(i) in
    let hot = hot_name s and cold = cold_name s in
    let link = List.length sp.s_hot in
    (* field types are renamed at the end, with everything else *)
    define hot
      (List.map field sp.s_hot
      @ [ { Structs.name = link_field_name; ty = Irty.Ptr (Irty.Struct cold);
            bits = None } ]);
    define cold (List.map field sp.s_cold);
    let slots = Array.make (Array.length decl.fields) Dead in
    place slots hot Direct sp.s_hot;
    place slots cold (Link (hot, link)) sp.s_cold;
    List.iter (fun oi -> slots.(oi) <- Dead) sp.s_dead;
    { typ = s; slots; pieces = [ (cold, Link (hot, link)); (hot, Direct) ];
      alloc = Linked (hot, cold, link); pointer = Renamed hot }
  | Rebuild r ->
    let s = r.r_typ in
    let decl = find_struct prog "rebuild" s in
    define s (List.map (fun oi -> decl.fields.(oi)) r.r_order);
    let slots = Array.make (Array.length decl.fields) Dead in
    place slots s Direct r.r_order;
    List.iter (fun oi -> slots.(oi) <- Dead) r.r_dead;
    { typ = s; slots; pieces = []; alloc = Same; pointer = Kept }
  | Pad p ->
    (* a trailing, never-accessed field: every old field stays put *)
    if p.pd_bytes <= 0 then
      invalid_arg
        (Printf.sprintf "Transform.pad: %d pad bytes (need > 0)" p.pd_bytes);
    let decl = find_struct prog "pad" p.pd_typ in
    let fields =
      List.filter
        (fun (f : Structs.field) -> not (String.equal f.name pad_field_name))
        (Array.to_list decl.fields)
    in
    define p.pd_typ
      (fields
      @ [ { Structs.name = pad_field_name;
            ty = Irty.Array (Irty.Char, p.pd_bytes); bits = None } ]);
    { typ = p.pd_typ;
      slots = Array.mapi (fun i _ -> Moved (p.pd_typ, i, Direct)) decl.fields;
      pieces = []; alloc = Same; pointer = Kept }
  | Peel p ->
    let s = p.p_typ in
    let decl = find_struct prog "peel" s in
    let name fi = decl.fields.(fi).Structs.name in
    let piece fi = piece_name s (name fi) in
    List.iter (fun fi -> define (piece fi) [ decl.fields.(fi) ]) p.p_live;
    (* each anchor global becomes one companion per piece *)
    prog.globals <-
      List.concat_map
        (fun ((n, _t, init) as orig) ->
          if List.mem n p.p_globals then
            List.map
              (fun fi ->
                ( piece_global n (name fi),
                  Irty.Ptr (Irty.Struct (piece fi)),
                  init ))
              p.p_live
          else [ orig ])
        prog.globals;
    let pieces =
      List.map (fun fi -> (piece fi, Anchor (Companion (name fi)))) p.p_live
    in
    let slots = Array.make (Array.length decl.fields) Dead in
    List.iter2 (fun fi (pc, path) -> slots.(fi) <- Moved (pc, 0, path)) p.p_live
      pieces;
    (* a stray annotation of the peeled struct (e.g. an explicit
       null-pointer cast whose value is replicated per piece) takes the
       first piece, whose layout stands in for the peeled object *)
    { typ = s; slots; pieces; alloc = At_anchor p.p_globals;
      pointer = Renamed (piece (List.hd p.p_live)) }
  | Pool p ->
    let s = p.po_typ in
    let decl = find_struct prog "pool" s in
    let nfields = Array.length decl.fields in
    if p.po_links = [] then
      invalid_arg ("Transform.pool: no link fields for " ^ s);
    let links = List.sort_uniq compare p.po_links in
    List.iter
      (fun fi ->
        if fi < 0 || fi >= nfields then
          invalid_arg
            (Printf.sprintf "Transform.pool: link index %d out of range for %s"
               fi s);
        let fl = decl.fields.(fi) in
        if not (Irty.equal fl.ty (Irty.Ptr (Irty.Struct s))) then
          invalid_arg
            (Printf.sprintf "Transform.pool: field %s.%s has type %s, not a \
                             self link" s fl.name (Irty.to_string fl.ty)))
      links;
    (* exactly one allocation site (Shape's MULTI/NOALLOC conditions) *)
    let n_sites = allocation_sites prog s in
    if n_sites <> 1 then
      invalid_arg
        (Printf.sprintf "Transform.pool: %s has %d allocation sites (need \
                         exactly 1)" s n_sites);
    let data =
      List.filter (fun fi -> not (List.mem fi links)) (List.init nfields Fun.id)
    in
    let via t = Anchor (Global (pool_anchor_name t)) in
    let slots = Array.make nfields Dead in
    let ps = pool_struct_name s in
    place slots ps (via ps) data;
    if data <> [] then define ps (List.map (fun fi -> decl.fields.(fi)) data);
    let link_pieces =
      List.map
        (fun fi ->
          let t = piece_name s decl.fields.(fi).Structs.name in
          place slots t (via t) [ fi ];
          define t [ decl.fields.(fi) ];
          t)
        links
    in
    let targets = (if data = [] then [] else [ ps ]) @ link_pieces in
    prog.globals <-
      prog.globals
      @ List.map
          (fun t -> (pool_anchor_name t, Irty.Ptr (Irty.Struct t), None))
          targets;
    { typ = s; slots; pieces = List.map (fun t -> (t, via t)) targets;
      alloc = Pooled; pointer = Index }

(* ------------------------------------------------------------------ *)
(* The rewrite                                                         *)
(* ------------------------------------------------------------------ *)

(* split's allocation sites: allocate the cold array next to the hot one
   and initialise every element's link (Figure 1b) *)
let link_allocations prog (f : Ir.func) ~typ ~hot ~cold ~link =
  let worklist = Queue.create () in
  List.iter (fun b -> Queue.add b worklist) f.fblocks;
  while not (Queue.is_empty worklist) do
    let b : Ir.block = Queue.pop worklist in
    let rec find_alloc pre = function
      | [] -> None
      | ({ Ir.idesc = Ir.Ialloc (r, kind, count, Irty.Struct s'); _ } as ai)
        :: rest
        when String.equal s' typ ->
        Some (List.rev pre, ai, r, kind, count, rest)
      | i :: rest -> find_alloc (i :: pre) rest
    in
    match find_alloc [] b.instrs with
    | None -> ()
    | Some (pre, alloc_i, r, kind, count, rest) ->
      let loc = alloc_i.iloc in
      let mk = mk_instr prog loc in
      alloc_i.idesc <- Ir.Ialloc (r, kind, count, Irty.Struct hot);
      let rc = Ir.fresh_reg f in
      let cold_kind =
        match kind with
        | Ir.Arealloc _ -> Ir.Amalloc (* realloc'd types are filtered out *)
        | Ir.Amalloc | Ir.Acalloc -> kind
      in
      let alloc_c = mk (Ir.Ialloc (rc, cold_kind, count, Irty.Struct cold)) in
      let iv = Ir.fresh_reg f in
      let init_iv = mk (Ir.Imov (iv, Ir.Oimm 0L)) in
      let header = Ir.fresh_block f loc in
      let body = Ir.fresh_block f loc in
      let after = Ir.fresh_block f loc in
      after.instrs <- rest;
      after.btermin <- b.btermin;
      b.instrs <- pre @ [ alloc_i; alloc_c; init_iv ];
      b.btermin <- Ir.Tjmp header.bid;
      let cond = Ir.fresh_reg f in
      header.instrs <-
        [ mk (Ir.Ibin (cond, Ir.Lt, Irty.Long, Ir.Oreg iv, count)) ];
      header.btermin <- Ir.Tbr (Ir.Oreg cond, body.bid, after.bid);
      let hp = Ir.fresh_reg f and fa = Ir.fresh_reg f in
      let cp = Ir.fresh_reg f and iv2 = Ir.fresh_reg f in
      body.instrs <-
        [
          mk (Ir.Iptradd (hp, Ir.Oreg r, Ir.Oreg iv, Irty.Struct hot));
          mk (Ir.Ifieldaddr (fa, Ir.Oreg hp, hot, link));
          mk (Ir.Iptradd (cp, Ir.Oreg rc, Ir.Oreg iv, Irty.Struct cold));
          mk (Ir.Istore (Ir.Oreg fa, Ir.Oreg cp, Irty.Ptr (Irty.Struct cold),
                         Some { Ir.astruct = hot; afield = link }));
          mk (Ir.Ibin (iv2, Ir.Add, Irty.Long, Ir.Oreg iv, Ir.Oimm 1L));
          mk (Ir.Imov (iv, Ir.Oreg iv2));
        ];
      body.btermin <- Ir.Tjmp header.bid;
      Queue.add after worklist
  done

(* One walk applies a layout map to a function: field addresses follow
   their path, access tags follow their slot, stores through a dead
   field's address disappear, and allocations and frees of the old
   struct fan out over its pieces. *)
let rewrite_func prog (l : layout) (f : Ir.func) =
  let s = l.typ in
  let anchors =
    match l.alloc with At_anchor gs -> gs | Same | Linked _ | Pooled -> []
  in
  let defs = if anchors = [] then [||] else def_map f in
  let frees =
    match l.pointer with Index -> [] | Kept | Renamed _ -> l.pieces
  in
  (* register types only tell which frees release the old struct *)
  let regty =
    if
      frees <> []
      && List.exists
           (fun (b : Ir.block) ->
             List.exists
               (fun (i : Ir.instr) ->
                 match i.idesc with Ir.Ifree _ -> true | _ -> false)
               b.instrs)
           f.fblocks
    then Regty.infer prog f
    else [||]
  in
  let dead_addr = Hashtbl.create 8 in
  let retag (acc : Ir.access option) =
    match acc with
    | Some a when String.equal a.astruct s -> (
      match l.slots.(a.afield) with
      | Moved (piece, ni, _) -> Some { Ir.astruct = piece; afield = ni }
      | Dead -> acc (* the store is dropped anyway *))
    | Some _ | None -> acc
  in
  (* a piece's anchor global, [g] being peel's traced anchor *)
  let anchor_global g = function
    | Anchor (Companion name) -> piece_global g name
    | Anchor (Global g') -> g'
    | Direct | Link _ -> invalid_arg "Transform: a piece without an anchor"
  in
  (* the instructions that reach [piece] from a pointer [base] to the old
     struct, and the piece's own base *)
  let reach mk piece path base =
    match path with
    | Direct -> ([], base)
    | Link (hot, link) ->
      let t1 = Ir.fresh_reg f and t2 = Ir.fresh_reg f in
      ( [ mk (Ir.Ifieldaddr (t1, base, hot, link));
          mk (Ir.Iload (t2, Ir.Oreg t1, Irty.Ptr (Irty.Struct piece),
                        Some { Ir.astruct = hot; afield = link })) ],
        Ir.Oreg t2 )
    | Anchor a -> (
      let g, idx =
        match a with
        | Global g -> (g, Some base)
        | Companion name -> (
          match trace_base defs base ~typ:s with
          | Some (g, idx) -> (piece_global g name, idx)
          | None -> assert false (* peel_feasible guaranteed this *))
      in
      let ga = Ir.fresh_reg f and pr = Ir.fresh_reg f in
      let load =
        [ mk (Ir.Iaddrglob (ga, g));
          mk (Ir.Iload (pr, Ir.Oreg ga, Irty.Ptr (Irty.Struct piece), None)) ]
      in
      match idx with
      | None -> (load, Ir.Oreg pr)
      | Some idx ->
        let ep = Ir.fresh_reg f in
        (load @ [ mk (Ir.Iptradd (ep, Ir.Oreg pr, idx, Irty.Struct piece)) ],
         Ir.Oreg ep))
  in
  (* one store per piece into the piece's anchor: of a fresh allocation
     of the piece when [alloc] gives its kind and count, else of [v]
     (e.g. a null initialisation) *)
  let fan_out mk g alloc v =
    List.concat_map
      (fun (piece, path) ->
        let ga = Ir.fresh_reg f in
        let pre, v =
          match alloc with
          | Some (kind, count) ->
            let r = Ir.fresh_reg f in
            ([ mk (Ir.Ialloc (r, kind, count, Irty.Struct piece)) ], Ir.Oreg r)
          | None -> ([], v)
        in
        let ptr = Irty.Ptr (Irty.Struct piece) in
        pre
        @ [ mk (Ir.Iaddrglob (ga, anchor_global g path));
            mk (Ir.Istore (Ir.Oreg ga, v, ptr, None)) ])
      l.pieces
  in
  let anchor_store = function
    | Ir.Oreg ar when anchors <> [] -> (
      match defs.(ar) with
      | Some { Ir.idesc = Ir.Iaddrglob (_, g); _ } when List.mem g anchors ->
        Some g
      | Some _ | None -> None)
    | Ir.Oreg _ | Ir.Oimm _ | Ir.Ofimm _ -> None
  in
  let points_to_typ = function
    | Ir.Oreg r when frees <> [] -> Regty.struct_ptr regty.(r) = Some s
    | Ir.Oreg _ | Ir.Oimm _ | Ir.Ofimm _ -> false
  in
  rewrite_instrs f (fun i ->
      match i.idesc with
      | Ir.Ifieldaddr (r, base, s', fi) when String.equal s' s -> (
        match l.slots.(fi) with
        | Dead ->
          Hashtbl.replace dead_addr r ();
          Drop
        | Moved (piece, ni, Direct) ->
          i.idesc <- Ir.Ifieldaddr (r, base, piece, ni);
          Keep
        | Moved (piece, ni, path) ->
          let mk = mk_instr prog i.iloc in
          let pre, base = reach mk piece path base in
          Replace (pre @ [ mk (Ir.Ifieldaddr (r, base, piece, ni)) ]))
      | Ir.Istore (Ir.Oreg a, _, _, _) when Hashtbl.mem dead_addr a ->
        Drop (* dead store removal *)
      | Ir.Istore (addr, v, ty, acc) -> (
        match anchor_store addr with
        | Some g ->
          let alloc = trace_alloc defs v ~typ:s in
          Replace (fan_out (mk_instr prog i.iloc) g alloc v)
        | None ->
          i.idesc <- Ir.Istore (addr, v, ty, retag acc);
          Keep)
      | Ir.Iload (r, a, ty, acc) ->
        i.idesc <- Ir.Iload (r, a, ty, retag acc);
        Keep
      | Ir.Ifree o when points_to_typ o ->
        let mk = mk_instr prog i.iloc in
        Replace
          (List.concat_map
             (fun (piece, path) ->
               let pre, base = reach mk piece path o in
               pre @ [ mk (Ir.Ifree base) ])
             frees)
      | Ir.Ialloc (r, kind, count, Irty.Struct s') when String.equal s' s -> (
        match l.alloc with
        | At_anchor _ -> Drop (* re-emitted at the anchor store *)
        | Pooled ->
          let mk = mk_instr prog i.iloc in
          let kind =
            match kind with
            | Ir.Arealloc _ ->
              invalid_arg "Transform.pool: realloc'd allocation site"
            | Ir.Amalloc | Ir.Acalloc -> kind
          in
          Replace
            (fan_out mk "" (Some (kind, count)) (Ir.Oimm 0L)
            @ [ mk (Ir.Imov (r, Ir.Oimm 0L)) ])
        | Same | Linked _ -> Keep)
      | Ir.Iptradd (r, base, idx, Irty.Struct s')
        when String.equal s' s && l.pointer = Index ->
        (* index arithmetic: dst = base + idx (elements, not bytes) *)
        let add = Ir.Ibin (r, Ir.Add, Irty.Long, base, idx) in
        Replace [ mk_instr prog i.iloc add ]
      | Ir.Iaddrglob (r, g) when List.mem g anchors ->
        (* what still names an anchor (a null compare) takes the first
           piece's companion; a fresh instruction, so that [defs] keeps
           tracing through the old one *)
        Replace
          [ mk_instr prog i.iloc
              (Ir.Iaddrglob (r, anchor_global g (snd (List.hd l.pieces)))) ]
      | Ir.Imov _ | Ir.Ibin _ | Ir.Iun _ | Ir.Icast _ | Ir.Iaddrglob _
      | Ir.Iaddrlocal _ | Ir.Iaddrstr _ | Ir.Iaddrfunc _
      | Ir.Ifieldaddr _ | Ir.Iptradd _ | Ir.Icall _ | Ir.Ialloc _
      | Ir.Ifree _ | Ir.Imemset _ | Ir.Imemcpy _ ->
        Keep);
  (match l.alloc with
  | Linked (hot, cold, link) -> link_allocations prog f ~typ:s ~hot ~cold ~link
  | Same | At_anchor _ | Pooled -> ());
  ignore (Dce.cleanup f)

let apply (prog : Ir.program) (plan : plan) =
  let l = layout_of prog plan in
  (* a map that moves no field (pad) rewrites nothing *)
  let moves =
    l.pointer <> Kept
    || Array.exists Fun.id
         (Array.mapi (fun i slot -> slot <> Moved (l.typ, i, Direct)) l.slots)
  in
  if moves then List.iter (rewrite_func prog l) prog.funcs;
  match l.pointer with
  | Kept -> ()
  | Renamed piece ->
    Structs.remove prog.structs l.typ;
    map_types prog (subst_ty ~from_:l.typ ~to_:piece)
  | Index ->
    Structs.remove prog.structs l.typ;
    map_types prog (subst_ptr_ty ~typ:l.typ)
