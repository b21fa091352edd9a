type reason =
  | NOALLOC
  | MULTI
  | REALLOC
  | LOOPALLOC
  | REDOALLOC
  | BYVAL
  | FREED
  | MEMOP
  | SIZEOF
  | NULLLINK
  | MIXED
  | INTERIOR
  | ESCAPE
  | RAWACC

let reason_name = function
  | NOALLOC -> "NOALLOC"
  | MULTI -> "MULTI"
  | REALLOC -> "REALLOC"
  | LOOPALLOC -> "LOOPALLOC"
  | REDOALLOC -> "REDOALLOC"
  | BYVAL -> "BYVAL"
  | FREED -> "FREED"
  | MEMOP -> "MEMOP"
  | SIZEOF -> "SIZEOF"
  | NULLLINK -> "NULLLINK"
  | MIXED -> "MIXED"
  | INTERIOR -> "INTERIOR"
  | ESCAPE -> "ESCAPE"
  | RAWACC -> "RAWACC"

type witness = {
  sw_reason : reason;
  sw_fn : string option;
  sw_iid : int option;
  sw_loc : Ir.Loc.t option;
  sw_explain : string;
}

type site = { sp_fn : string; sp_iid : int; sp_loc : Ir.Loc.t }

type verdict = {
  v_typ : string;
  v_links : int list;
  v_link_names : string list;
  v_poolable : bool;
  v_alloc : site option;
  v_witnesses : witness list;
}

type t = (string, verdict) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* The uniqueness lattice                                              *)
(* ------------------------------------------------------------------ *)

(* Per-register abstract value, for one candidate type S:
   - [NotS]: provably unrelated to S (scalars, other pointers);
   - [SIdx]: a pointer to an S cell that descends from the allocation
     site through ptradd / copies / properly-typed memory — exactly the
     values the pool rewrite turns into element indices;
   - [SInt]: an interior pointer (the address of a field of some S cell),
     only legitimate as the address operand of the load/store it feeds;
   - [Top]: pool and non-pool values merged on some path. *)
type tag = Bot | NotS | SIdx | SInt | Top

let join_tag a b =
  if a = b then a
  else
    match (a, b) with
    | Bot, x | x, Bot -> x
    | _ -> Top

module TagFlow = Dataflow.Make (struct
  type t = tag array
  (* [bottom] stands for "unvisited"; real facts are arrays of the
     function's register count *)

  let bottom = [||]

  let equal a b =
    a == b
    || Array.length a = Array.length b
       &&
       let ok = ref true in
       Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
       !ok

  let join a b =
    if a == b then a
    else if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else Array.init (Array.length a) (fun i -> join_tag a.(i) b.(i))
end)

let val_tag (tags : tag array) = function
  | Ir.Oreg r -> if r < Array.length tags then tags.(r) else NotS
  | Ir.Oimm _ | Ir.Ofimm _ -> NotS

(* the per-instruction def transfer; checks live in [check_instr] *)
let def_tag ~typ (prog : Ir.program) (tags : tag array) (i : Ir.instr) :
    (Ir.reg * tag) option =
  let ptr_s = Irty.Ptr (Irty.Struct typ) in
  match i.idesc with
  | Ir.Ialloc (r, _, _, Irty.Struct s) when String.equal s typ -> Some (r, SIdx)
  | Ir.Ialloc (r, _, _, _) -> Some (r, NotS)
  | Ir.Iload (r, _, ty, _) ->
    Some (r, if Irty.equal ty ptr_s then SIdx else NotS)
  | Ir.Ifieldaddr (r, _, s, _) ->
    Some (r, if String.equal s typ then SInt else NotS)
  | Ir.Iptradd (r, _, _, Irty.Struct s) when String.equal s typ ->
    Some (r, SIdx)
  | Ir.Iptradd (r, _, _, _) -> Some (r, NotS)
  | Ir.Icast (r, _, to_, _, _) ->
    Some (r, if Irty.equal to_ ptr_s then SIdx else NotS)
  | Ir.Imov (r, v) -> Some (r, val_tag tags v)
  | Ir.Icall (Some r, Ir.Cdirect n, _) ->
    let ret =
      match Ir.find_func prog n with
      | Some callee -> if Irty.equal callee.Ir.fret ptr_s then SIdx else NotS
      | None -> NotS
    in
    Some (r, ret)
  | Ir.Icall (Some r, _, _) -> Some (r, NotS)
  | Ir.Ibin (r, _, _, _, _) | Ir.Iun (r, _, _, _) | Ir.Iaddrglob (r, _)
  | Ir.Iaddrlocal (r, _) | Ir.Iaddrstr (r, _) | Ir.Iaddrfunc (r, _) ->
    Some (r, NotS)
  | Ir.Icall (None, _, _) | Ir.Istore _ | Ir.Ifree _ | Ir.Imemset _
  | Ir.Imemcpy _ ->
    None

let apply_def ~typ prog tags i =
  match def_tag ~typ prog tags i with
  | Some (r, t) -> if r < Array.length tags then tags.(r) <- t
  | None -> ()

let is_compare = function
  | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne -> true
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Band | Ir.Bor | Ir.Bxor
  | Ir.Shl | Ir.Shr ->
    false

(* ------------------------------------------------------------------ *)
(* Per-instruction violation checks                                    *)
(* ------------------------------------------------------------------ *)

let check_instr ~typ (prog : Ir.program) (tags : tag array)
    (i : Ir.instr) ~(bad : reason -> string -> unit) =
  let ptr_s = Irty.Ptr (Irty.Struct typ) in
  let t = val_tag tags in
  (* the catch-all for a value position where only NotS is acceptable *)
  let scalar_only what o =
    match t o with
    | SIdx -> bad MIXED (Printf.sprintf "%s pointer used %s" typ what)
    | SInt ->
      bad INTERIOR
        (Printf.sprintf "interior pointer into %s used %s" typ what)
    | Top ->
      bad MIXED
        (Printf.sprintf "value mixing %s and non-%s pointers used %s" typ typ
           what)
    | Bot | NotS -> ()
  in
  match i.idesc with
  | Ir.Imov (_, v) -> (
    (* copies of pool and interior pointers are fine; merges are not *)
    match t v with
    | Top ->
      bad MIXED
        (Printf.sprintf "register mixes %s and non-%s pointers" typ typ)
    | Bot | NotS | SIdx | SInt -> ())
  | Ir.Ibin (_, op, _, a, b) ->
    let ta = t a and tb = t b in
    if ta = SInt || tb = SInt then
      bad INTERIOR
        (Printf.sprintf "arithmetic on an interior pointer into %s" typ)
    else if ta = Top || tb = Top then
      bad MIXED
        (Printf.sprintf "operand mixes %s and non-%s pointers" typ typ)
    else if is_compare op then begin
      if ta = SIdx && tb <> SIdx then
        bad NULLLINK
          (Printf.sprintf
             "%s pointer compared against a non-pool value (index 0 is a \
              valid cell)"
             typ)
      else if tb = SIdx && ta <> SIdx then
        bad NULLLINK
          (Printf.sprintf
             "non-pool value compared against a %s pointer (index 0 is a \
              valid cell)"
             typ)
    end
    else if ta = SIdx || tb = SIdx then
      bad MIXED
        (Printf.sprintf "%s pointer used in plain arithmetic" typ)
  | Ir.Iun (_, op, _, v) -> (
    match t v with
    | SIdx ->
      if op = Ir.Lnot then
        bad NULLLINK
          (Printf.sprintf "%s pointer null-tested (index 0 is a valid cell)"
             typ)
      else bad MIXED (Printf.sprintf "%s pointer used in unary arithmetic" typ)
    | SInt ->
      bad INTERIOR
        (Printf.sprintf "unary arithmetic on an interior pointer into %s" typ)
    | Top ->
      bad MIXED (Printf.sprintf "operand mixes %s and non-%s pointers" typ typ)
    | Bot | NotS -> ())
  | Ir.Icast (_, _, to_, v, _) -> (
    match t v with
    | SIdx ->
      if not (Irty.equal to_ ptr_s) then
        bad ESCAPE
          (Printf.sprintf "%s pointer cast to %s" typ (Irty.to_string to_))
    | SInt ->
      bad INTERIOR (Printf.sprintf "interior pointer into %s cast" typ)
    | Top ->
      bad MIXED (Printf.sprintf "cast mixes %s and non-%s pointers" typ typ)
    | Bot | NotS ->
      if Irty.equal to_ ptr_s then
        bad
          (match v with Ir.Oimm _ -> NULLLINK | _ -> MIXED)
          (Printf.sprintf
             "foreign value cast to %s* (not descended from the pool \
              allocation)"
             typ))
  | Ir.Iload (_, addr, _, _) -> (
    match t addr with
    | SIdx ->
      bad RAWACC
        (Printf.sprintf "load through a %s pointer without a field selection"
           typ)
    | Top ->
      bad MIXED
        (Printf.sprintf "load address mixes %s and non-%s pointers" typ typ)
    | Bot | NotS | SInt -> ())
  | Ir.Istore (addr, v, ty, _) -> (
    (match t addr with
    | SIdx ->
      bad RAWACC
        (Printf.sprintf "store through a %s pointer without a field selection"
           typ)
    | Top ->
      bad MIXED
        (Printf.sprintf "store address mixes %s and non-%s pointers" typ typ)
    | Bot | NotS | SInt -> ());
    match t v with
    | SInt ->
      bad INTERIOR
        (Printf.sprintf "interior pointer into %s stored to memory" typ)
    | Top ->
      bad MIXED
        (Printf.sprintf "stored value mixes %s and non-%s pointers" typ typ)
    | SIdx ->
      if not (Irty.equal ty ptr_s) then
        bad ESCAPE
          (Printf.sprintf "%s pointer stored through a %s-typed cell" typ
             (Irty.to_string ty))
    | Bot | NotS ->
      if Irty.equal ty ptr_s then
        bad
          (match v with Ir.Oimm _ -> NULLLINK | _ -> MIXED)
          (match v with
          | Ir.Oimm n ->
            Printf.sprintf
              "constant %Ld stored into a %s*-typed cell (null and index 0 \
               are indistinguishable in a pool)"
              n typ
          | _ ->
            Printf.sprintf "non-pool value stored into a %s*-typed cell" typ))
  | Ir.Ifieldaddr (_, base, s, _) -> (
    if String.equal s typ then
      match t base with
      | SIdx -> ()
      | SInt ->
        bad INTERIOR
          (Printf.sprintf "field address formed from an interior pointer of %s"
             typ)
      | Top ->
        bad MIXED
          (Printf.sprintf "field-access base mixes %s and non-%s pointers" typ
             typ)
      | Bot | NotS ->
        bad MIXED
          (Printf.sprintf
             "%s field accessed through a pointer not descended from the pool \
              allocation"
             typ)
    else
      match t base with
      | SIdx ->
        bad RAWACC
          (Printf.sprintf "%s pointer used as a pointer to struct %s" typ s)
      | SInt ->
        bad INTERIOR
          (Printf.sprintf "interior pointer into %s reinterpreted as struct %s"
             typ s)
      | Top ->
        bad MIXED
          (Printf.sprintf "field-access base mixes %s and non-%s pointers" typ
             typ)
      | Bot | NotS -> ())
  | Ir.Iptradd (_, base, idx, ty) -> (
    scalar_only "as an array index" idx;
    match ty with
    | Irty.Struct s when String.equal s typ -> (
      match t base with
      | SIdx -> ()
      | SInt ->
        bad INTERIOR
          (Printf.sprintf "pointer arithmetic on an interior pointer of %s"
             typ)
      | Top ->
        bad MIXED
          (Printf.sprintf "pointer-arithmetic base mixes %s and non-%s \
                           pointers" typ typ)
      | Bot | NotS ->
        bad MIXED
          (Printf.sprintf
             "%s pointer arithmetic on a base not descended from the pool \
              allocation"
             typ))
    | _ -> (
      match t base with
      | SIdx ->
        bad RAWACC
          (Printf.sprintf "%s pointer used as a %s array" typ
             (Irty.to_string ty))
      | SInt ->
        bad INTERIOR
          (Printf.sprintf "pointer arithmetic on an interior pointer of %s"
             typ)
      | Top ->
        bad MIXED
          (Printf.sprintf "pointer-arithmetic base mixes %s and non-%s \
                           pointers" typ typ)
      | Bot | NotS -> ()))
  | Ir.Icall (_, callee, args) -> (
    match callee with
    | Ir.Cdirect n -> (
      match Ir.find_func prog n with
      | Some target ->
        let params = Array.of_list target.Ir.fparams in
        List.iteri
          (fun k arg ->
            match t arg with
            | SIdx ->
              let pty =
                if k < Array.length params then Some (snd params.(k)) else None
              in
              if pty <> Some ptr_s then
                bad ESCAPE
                  (Printf.sprintf
                     "%s pointer passed to %s through a parameter not typed \
                      %s*"
                     typ n typ)
            | SInt ->
              bad INTERIOR
                (Printf.sprintf "interior pointer into %s passed to %s" typ n)
            | Top ->
              bad MIXED
                (Printf.sprintf "argument to %s mixes %s and non-%s pointers"
                   n typ typ)
            | Bot | NotS -> ())
          args
      | None ->
        List.iter (scalar_only ("in a call to " ^ n)) args)
    | Ir.Cbuiltin n | Ir.Cextern n ->
      List.iter
        (scalar_only (Printf.sprintf "in a call outside the pool scope (%s)" n))
        args
    | Ir.Cindirect fo ->
      scalar_only "as an indirect call target" fo;
      List.iter (scalar_only "in an indirect call") args)
  | Ir.Ialloc (_, kind, count, _) -> (
    scalar_only "as an allocation size" count;
    match kind with
    | Ir.Arealloc old -> scalar_only "as a realloc source" old
    | Ir.Amalloc | Ir.Acalloc -> ())
  | Ir.Ifree v -> (
    match t v with
    | SIdx ->
      bad FREED (Printf.sprintf "%s cell freed (pool cells are immortal)" typ)
    | SInt ->
      bad INTERIOR (Printf.sprintf "interior pointer into %s freed" typ)
    | Top ->
      bad MIXED (Printf.sprintf "freed value mixes %s and non-%s pointers" typ
                   typ)
    | Bot | NotS -> ())
  | Ir.Imemset (a, b, c, tag) | Ir.Imemcpy (a, b, c, tag) ->
    if tag = Some typ then
      bad MEMOP (Printf.sprintf "memset/memcpy touches struct %s" typ);
    List.iter (scalar_only "in a byte-level memory operation") [ a; b; c ]
  | Ir.Iaddrglob _ | Ir.Iaddrlocal _ | Ir.Iaddrstr _ | Ir.Iaddrfunc _ -> ()

let check_term ~typ (f : Ir.func) (tags : tag array) (term : Ir.term)
    ~(bad : reason -> string -> unit) =
  let ptr_s = Irty.Ptr (Irty.Struct typ) in
  match term with
  | Ir.Tbr (cond, _, _) -> (
    match val_tag tags cond with
    | SIdx ->
      bad NULLLINK
        (Printf.sprintf "%s pointer used as a branch condition (null test)"
           typ)
    | SInt ->
      bad INTERIOR
        (Printf.sprintf "interior pointer into %s used as a branch condition"
           typ)
    | Top ->
      bad MIXED
        (Printf.sprintf "branch condition mixes %s and non-%s pointers" typ
           typ)
    | Bot | NotS -> ())
  | Ir.Tret (Some v) -> (
    match val_tag tags v with
    | SIdx ->
      if not (Irty.equal f.Ir.fret ptr_s) then
        bad ESCAPE
          (Printf.sprintf "%s pointer returned from %s, whose return type is \
                           %s" typ f.Ir.fname (Irty.to_string f.Ir.fret))
    | SInt ->
      bad INTERIOR
        (Printf.sprintf "interior pointer into %s returned from %s" typ
           f.Ir.fname)
    | Top ->
      bad MIXED
        (Printf.sprintf "return value mixes %s and non-%s pointers" typ typ)
    | Bot | NotS -> ())
  | Ir.Tret None | Ir.Tjmp _ -> ()

(* ------------------------------------------------------------------ *)
(* Structural preconditions                                            *)
(* ------------------------------------------------------------------ *)

(* [struct typ] appearing outside a pointer: a by-value instance whose
   layout the pool factorization would tear apart *)
let rec by_value typ (t : Irty.t) =
  match t with
  | Irty.Struct s -> String.equal s typ
  | Irty.Array (u, _) -> by_value typ u
  | Irty.Ptr _ | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
  | Irty.Float | Irty.Double | Irty.Funptr ->
    false

type alloc_info = {
  ai_fn : Ir.func;
  ai_bid : int;
  ai_instr : Ir.instr;
  ai_realloc : bool;
}

let alloc_sites (prog : Ir.program) ~typ : alloc_info list =
  let out = ref [] in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Ialloc (_, kind, _, Irty.Struct s) when String.equal s typ
                ->
                out :=
                  { ai_fn = f; ai_bid = b.bid; ai_instr = i;
                    ai_realloc =
                      (match kind with
                      | Ir.Arealloc _ -> true
                      | Ir.Amalloc | Ir.Acalloc -> false) }
                  :: !out
              | _ -> ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let self_links (d : Structs.decl) : (int * string) list =
  let out = ref [] in
  Array.iteri
    (fun fi (fl : Structs.field) ->
      if Irty.equal fl.ty (Irty.Ptr (Irty.Struct d.sname)) then
        out := (fi, fl.name) :: !out)
    d.fields;
  List.rev !out

(* Can the allocating function run more than once? Walk single-caller
   chains up to main (assumed to run once, as in the paper's top-down
   propagation); loops around any call site, multiple call sites,
   recursion, or an address-taken function all answer "maybe". *)
let runs_once cg ~loops ~fn : string option =
  let in_loop caller bid =
    match loops caller with
    | None -> false
    | Some forest -> Loop.innermost forest bid <> None
  in
  let rec walk name seen =
    if String.equal name "main" then None
    else if List.mem name seen then
      Some (Printf.sprintf "%s is on a recursive call cycle" name)
    else if Callgraph.address_taken cg name then
      Some (Printf.sprintf "the address of %s is taken" name)
    else
      match Callgraph.callers_of cg name with
      | [] -> Some (Printf.sprintf "%s has no visible caller" name)
      | [ cs ] ->
        if in_loop cs.Callgraph.cs_caller cs.Callgraph.cs_block then
          Some
            (Printf.sprintf "%s is called from a loop in %s" name
               cs.Callgraph.cs_caller)
        else walk cs.Callgraph.cs_caller (name :: seen)
      | _ :: _ :: _ ->
        Some (Printf.sprintf "%s is called from more than one site" name)
  in
  walk fn []

let analyze_type (prog : Ir.program) cg (d : Structs.decl)
    (loops : string -> Loop.forest option) : verdict =
  let typ = d.sname in
  let links = self_links d in
  let witnesses = ref [] in
  let add w = witnesses := w :: !witnesses in
  let decl_bad reason explain =
    add { sw_reason = reason; sw_fn = None; sw_iid = None; sw_loc = None;
          sw_explain = explain }
  in
  (* by-value instances *)
  Structs.iter
    (fun d' ->
      Array.iter
        (fun (fl : Structs.field) ->
          if by_value typ fl.ty then
            decl_bad BYVAL
              (Printf.sprintf "struct %s embeds %s by value (field %s)"
                 d'.sname typ fl.name))
        d'.fields)
    prog.structs;
  List.iter
    (fun (n, t, _) ->
      if by_value typ t then
        decl_bad BYVAL (Printf.sprintf "global %s holds %s by value" n typ))
    prog.globals;
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (n, t) ->
          if by_value typ t then
            add
              { sw_reason = BYVAL; sw_fn = Some f.Ir.fname; sw_iid = None;
                sw_loc = Some f.Ir.floc;
                sw_explain =
                  Printf.sprintf "local %s in %s holds %s by value" n
                    f.Ir.fname typ })
        f.Ir.flocals)
    prog.funcs;
  (* sizeof escapes: the pool changes sizeof(typ) *)
  List.iter
    (fun (s, loc) ->
      if String.equal s typ then
        add
          { sw_reason = SIZEOF; sw_fn = None; sw_iid = None;
            sw_loc = Some loc;
            sw_explain =
              Printf.sprintf
                "sizeof(struct %s) escapes into plain arithmetic; the pool \
                 layout changes it"
                typ })
    prog.psizeof_uses;
  (* allocation-site discipline *)
  let sites = alloc_sites prog ~typ in
  let site_of (ai : alloc_info) =
    { sp_fn = ai.ai_fn.Ir.fname; sp_iid = ai.ai_instr.Ir.iid;
      sp_loc = ai.ai_instr.Ir.iloc }
  in
  let alloc =
    match sites with
    | [] ->
      decl_bad NOALLOC
        (Printf.sprintf "struct %s is never dynamically allocated" typ);
      None
    | [ ai ] ->
      if ai.ai_realloc then
        add
          { sw_reason = REALLOC; sw_fn = Some ai.ai_fn.Ir.fname;
            sw_iid = Some ai.ai_instr.Ir.iid;
            sw_loc = Some ai.ai_instr.Ir.iloc;
            sw_explain =
              Printf.sprintf "struct %s is reallocated; the pool base cannot \
                              move" typ };
      (match loops ai.ai_fn.Ir.fname with
      | Some forest when Loop.innermost forest ai.ai_bid <> None ->
        add
          { sw_reason = LOOPALLOC; sw_fn = Some ai.ai_fn.Ir.fname;
            sw_iid = Some ai.ai_instr.Ir.iid;
            sw_loc = Some ai.ai_instr.Ir.iloc;
            sw_explain =
              Printf.sprintf
                "the allocation of struct %s sits inside a loop; a second \
                 execution would rebind the pool base"
                typ }
      | Some _ | None -> ());
      (match runs_once (Lazy.force cg) ~loops ~fn:ai.ai_fn.Ir.fname with
      | Some why ->
        add
          { sw_reason = REDOALLOC; sw_fn = Some ai.ai_fn.Ir.fname;
            sw_iid = Some ai.ai_instr.Ir.iid;
            sw_loc = Some ai.ai_instr.Ir.iloc;
            sw_explain =
              Printf.sprintf
                "the allocating function may execute more than once (%s)" why }
      | None -> ());
      Some (site_of ai)
    | first :: extra ->
      List.iter
        (fun ai ->
          add
            { sw_reason = MULTI; sw_fn = Some ai.ai_fn.Ir.fname;
              sw_iid = Some ai.ai_instr.Ir.iid;
              sw_loc = Some ai.ai_instr.Ir.iloc;
              sw_explain =
                Printf.sprintf
                  "second allocation site of struct %s (first is in %s); \
                   cells would live in two pools"
                  typ first.ai_fn.Ir.fname })
        extra;
      None
  in
  (* the dataflow uniqueness proof, per function *)
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      let init = Array.make f.Ir.next_reg Bot in
      let sol =
        TagFlow.forward cfg ~init ~transfer:(fun b fact ->
            let tags =
              if Array.length fact = 0 then Array.make f.Ir.next_reg Bot
              else Array.copy fact
            in
            List.iter (apply_def ~typ prog tags) b.Ir.instrs;
            tags)
      in
      Array.iter
        (fun (b : Ir.block) ->
          if Cfg.reachable cfg b.Ir.bid then begin
            let fact = sol.TagFlow.before.(b.Ir.bid) in
            let tags =
              if Array.length fact = 0 then Array.make f.Ir.next_reg Bot
              else Array.copy fact
            in
            List.iter
              (fun (i : Ir.instr) ->
                check_instr ~typ prog tags i ~bad:(fun reason explain ->
                    add
                      { sw_reason = reason; sw_fn = Some f.Ir.fname;
                        sw_iid = Some i.Ir.iid; sw_loc = Some i.Ir.iloc;
                        sw_explain = explain });
                apply_def ~typ prog tags i)
              b.Ir.instrs;
            check_term ~typ f tags b.Ir.btermin ~bad:(fun reason explain ->
                add
                  { sw_reason = reason; sw_fn = Some f.Ir.fname;
                    sw_iid = None; sw_loc = Some b.Ir.bloc;
                    sw_explain = explain })
          end)
        cfg.Cfg.blocks)
    prog.funcs;
  let witnesses = List.rev !witnesses in
  {
    v_typ = typ;
    v_links = List.map fst links;
    v_link_names = List.map snd links;
    v_poolable = witnesses = [] && alloc <> None;
    v_alloc = alloc;
    v_witnesses = witnesses;
  }

let analyze (prog : Ir.program) : t =
  let out = Hashtbl.create 8 in
  let forests : (string, Loop.forest option) Hashtbl.t = Hashtbl.create 8 in
  let loops fname =
    match Hashtbl.find_opt forests fname with
    | Some f -> f
    | None ->
      let f =
        match Ir.find_func prog fname with
        | Some fn -> Some (Loop.compute (Cfg.build fn))
        | None -> None
      in
      Hashtbl.replace forests fname f;
      f
  in
  let cg = lazy (Callgraph.build prog) in
  Structs.iter
    (fun d ->
      if self_links d <> [] then
        Hashtbl.replace out d.sname (analyze_type prog cg d loops))
    prog.structs;
  out

let verdicts (t : t) : verdict list =
  Hashtbl.fold (fun _ v acc -> v :: acc) t []
  |> List.sort (fun a b -> compare a.v_typ b.v_typ)

let verdict (t : t) (typ : string) = Hashtbl.find_opt t typ

let poolable (t : t) (typ : string) =
  match verdict t typ with Some v -> v.v_poolable | None -> false

let links (t : t) (typ : string) =
  match verdict t typ with
  | Some v when v.v_poolable -> v.v_links
  | Some _ | None -> []
