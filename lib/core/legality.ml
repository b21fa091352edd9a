type reason =
  | CSTT | CSTF | ATKN | LIBC | IND | SMAL | MSET | NEST | SIZEOF

let reason_name = function
  | CSTT -> "CSTT" | CSTF -> "CSTF" | ATKN -> "ATKN" | LIBC -> "LIBC"
  | IND -> "IND" | SMAL -> "SMAL" | MSET -> "MSET" | NEST -> "NEST"
  | SIZEOF -> "SIZEOF"

type witness = {
  w_reason : reason;
  w_fn : string option;
  w_iid : int option;
  w_loc : Ir.Loc.t option;
  w_explain : string;
}

type alloc_site = { al_fn : string; al_iid : int; al_loc : Ir.Loc.t }

type attrs = {
  mutable has_global_var : bool;
  mutable has_local_var : bool;
  mutable has_global_ptr : bool;
  mutable has_local_ptr : bool;
  mutable has_static_array : bool;
  mutable dyn_alloc : bool;
  mutable freed : bool;
  mutable realloced : bool;
  mutable global_ptrs : string list;
  mutable alloc_sites : alloc_site list;
  mutable escapes : string list;
  mutable addr_passed_fields : int list;
}

type info = {
  mutable invalid : reason list;
  mutable witnesses : witness list;
  attrs : attrs;
}

type t = { table : (string, info) Hashtbl.t }

let fresh_attrs () =
  {
    has_global_var = false; has_local_var = false; has_global_ptr = false;
    has_local_ptr = false; has_static_array = false; dyn_alloc = false;
    freed = false; realloced = false; global_ptrs = []; alloc_sites = [];
    escapes = []; addr_passed_fields = [];
  }

let info t s = Hashtbl.find t.table s

let mark ?fn ?iid ?loc ?why t s r =
  match Hashtbl.find_opt t.table s with
  | Some i ->
    if not (List.mem r i.invalid) then i.invalid <- r :: i.invalid;
    let w =
      {
        w_reason = r;
        w_fn = fn;
        w_iid = iid;
        w_loc = loc;
        w_explain =
          (match why with
          | Some e -> e
          | None -> Printf.sprintf "%s test fired on '%s'" (reason_name r) s);
      }
    in
    (* every violation keeps its own witness; identical re-discoveries of
       the same site are dropped *)
    if
      not
        (List.exists
           (fun w' ->
             w'.w_reason = w.w_reason && w'.w_fn = w.w_fn
             && w'.w_iid = w.w_iid
             && String.equal w'.w_explain w.w_explain)
           i.witnesses)
    then i.witnesses <- i.witnesses @ [ w ]
  | None -> ()

let attrs_of t s =
  match Hashtbl.find_opt t.table s with
  | Some i -> Some i.attrs
  | None -> None

let relaxable = function
  | CSTT | CSTF | ATKN -> true
  | LIBC | IND | SMAL | MSET | NEST | SIZEOF -> false

(* the paper's SMAL threshold A: "allocation sites allocating arrays of
   size 1" *)
let smal_threshold = 1

let analyze (prog : Ir.program) : t =
  let t = { table = Hashtbl.create 32 } in
  Structs.iter
    (fun d ->
      Hashtbl.replace t.table d.sname
        { invalid = []; witnesses = []; attrs = fresh_attrs () })
    prog.structs;
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.fname ()) prog.funcs;

  (* --- declaration attributes and NEST --- *)
  Structs.iter
    (fun d ->
      Array.iter
        (fun (fld : Structs.field) ->
          match fld.ty with
          | Irty.Struct inner | Irty.Array (Irty.Struct inner, _) ->
            (* by-value nesting invalidates both the nested type and the
               container (implementation limitation, as in the paper) *)
            mark t inner NEST
              ~why:
                (Printf.sprintf "nested by value inside struct '%s' (field '%s')"
                   d.sname fld.name);
            mark t d.sname NEST
              ~why:
                (Printf.sprintf "nests struct '%s' by value (field '%s')" inner
                   fld.name)
          | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
          | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _
          | Irty.Funptr ->
            ())
        d.fields)
    prog.structs;
  List.iter
    (fun (name, ty, _) ->
      match ty with
      | Irty.Struct s ->
        Option.iter (fun a -> a.has_global_var <- true) (attrs_of t s)
      | Irty.Ptr (Irty.Struct s) ->
        Option.iter
          (fun a ->
            a.has_global_ptr <- true;
            a.global_ptrs <- a.global_ptrs @ [ name ])
          (attrs_of t s)
      | Irty.Array (Irty.Struct s, _) ->
        Option.iter (fun a -> a.has_static_array <- true) (attrs_of t s)
      | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
      | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _ | Irty.Funptr ->
        ())
    prog.globals;

  (* --- sizeof escapes recorded during lowering --- *)
  List.iter
    (fun (s, loc) ->
      mark t s SIZEOF ~loc
        ~why:
          (Printf.sprintf "sizeof(struct %s) escapes into plain arithmetic" s))
    prog.psizeof_uses;

  (* --- FE pass over every function --- *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (name, ty) ->
          ignore name;
          match ty with
          | Irty.Struct s ->
            Option.iter (fun a -> a.has_local_var <- true) (attrs_of t s)
          | Irty.Ptr (Irty.Struct s) ->
            Option.iter (fun a -> a.has_local_ptr <- true) (attrs_of t s)
          | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
          | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _
          | Irty.Funptr ->
            ())
        f.flocals;
      let regty = Regty.infer prog f in
      let ty_of = function
        | Ir.Oreg r -> regty.(r)
        | Ir.Oimm _ -> Some Irty.Long
        | Ir.Ofimm _ -> Some Irty.Double
      in
      (* alloc results (tracked through casts by [from_alloc]) *)
      let alloc_elem : (Ir.reg, Irty.t) Hashtbl.t = Hashtbl.create 16 in
      (* uses of field addresses; the defining instruction is kept so ATKN
         witnesses point at the address-of expression, not its use site *)
      let fieldaddr_of : (Ir.reg, string * int * int * Ir.Loc.t) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              (match i.idesc with
              | Ir.Ialloc (r, kind, count, elem) ->
                Hashtbl.replace alloc_elem r elem;
                (match elem with
                | Irty.Struct s ->
                  Option.iter
                    (fun a ->
                      a.dyn_alloc <- true;
                      if
                        not
                          (List.exists
                             (fun al ->
                               String.equal al.al_fn f.fname
                               && al.al_iid = i.iid)
                             a.alloc_sites)
                      then
                        a.alloc_sites <-
                          a.alloc_sites
                          @ [ { al_fn = f.fname; al_iid = i.iid;
                                al_loc = i.iloc } ];
                      match kind with
                      | Ir.Arealloc _ -> a.realloced <- true
                      | Ir.Amalloc | Ir.Acalloc -> ())
                    (attrs_of t s);
                  (match count with
                  | Ir.Oimm n when Int64.to_int n <= smal_threshold ->
                    mark t s SMAL ~fn:f.fname ~iid:i.iid ~loc:i.iloc
                      ~why:
                        (Printf.sprintf
                           "allocation of %Ld object(s) is at or below the \
                            site-count threshold %d"
                           n smal_threshold)
                  | Ir.Oimm _ | Ir.Oreg _ | Ir.Ofimm _ -> ())
                | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
                | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _
                | Irty.Funptr ->
                  ())
              | Ir.Icast (r, from_, to_, v, ci) -> (
                (* propagate alloc tracking through the cast *)
                (match v with
                | Ir.Oreg vr -> (
                  match Hashtbl.find_opt alloc_elem vr with
                  | Some e -> Hashtbl.replace alloc_elem r e
                  | None -> ())
                | Ir.Oimm _ | Ir.Ofimm _ -> ());
                let mark_here s r why =
                  mark t s r ~fn:f.fname ~iid:i.iid ~loc:i.iloc ~why
                in
                (match to_ with
                | Irty.Ptr (Irty.Struct s) ->
                  if v = Ir.Oimm 0L then ()
                  (* a null pointer constant is not a type-unsafe use *)
                  else if ci.from_alloc then begin
                    (* tolerate casts of matching allocation results *)
                    match v with
                    | Ir.Oreg vr -> (
                      match Hashtbl.find_opt alloc_elem vr with
                      | Some (Irty.Struct s') when String.equal s s' -> ()
                      | Some (Irty.Struct s') ->
                        mark_here s CSTT
                          (Printf.sprintf
                             "allocation of struct '%s' cast to 'struct %s *'"
                             s' s)
                      | Some _ ->
                        (* untyped allocation (e.g. malloc(16)): the FE
                           cannot retarget the site; counts as CSTT like
                           the paper's void* wrapper case *)
                        mark_here s CSTT
                          (Printf.sprintf
                             "untyped allocation cast to 'struct %s *'" s)
                      | None ->
                        mark_here s CSTT
                          (Printf.sprintf
                             "value of unknown origin cast to 'struct %s *'" s))
                    | Ir.Oimm _ | Ir.Ofimm _ ->
                      mark_here s CSTT
                        (Printf.sprintf "constant cast to 'struct %s *'" s)
                  end
                  else
                    mark_here s CSTT
                      (Printf.sprintf
                         "cast to 'struct %s *' from a value that is not an \
                          allocation result"
                         s)
                | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
                | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _
                | Irty.Struct _ | Irty.Funptr ->
                  ());
                match from_ with
                | Irty.Ptr (Irty.Struct s) ->
                  if not ci.from_alloc then
                    mark t s CSTF ~fn:f.fname ~iid:i.iid ~loc:i.iloc
                      ~why:
                        (Printf.sprintf
                           "pointer to struct '%s' cast to an unrelated type \
                            '%s'"
                           s (Irty.to_string to_))
                | Irty.Void | Irty.Char | Irty.Short | Irty.Int | Irty.Long
                | Irty.Float | Irty.Double | Irty.Ptr _ | Irty.Array _
                | Irty.Struct _ | Irty.Funptr ->
                  ())
              | Ir.Ifieldaddr (r, _, s, fi) ->
                Hashtbl.replace fieldaddr_of r (s, fi, i.iid, i.iloc)
              | Ir.Ifree o -> (
                match Regty.struct_ptr (ty_of o) with
                | Some s -> Option.iter (fun a -> a.freed <- true) (attrs_of t s)
                | None -> ())
              | Ir.Imemset (_, _, _, tag) | Ir.Imemcpy (_, _, _, tag) ->
                let prim =
                  match i.idesc with Ir.Imemset _ -> "memset" | _ -> "memcpy"
                in
                Option.iter
                  (fun s ->
                    mark t s MSET ~fn:f.fname ~iid:i.iid ~loc:i.iloc
                      ~why:
                        (Printf.sprintf
                           "struct '%s' is bulk-accessed by %s, which assumes \
                            the declared layout"
                           s prim))
                  tag
              | Ir.Icall (_, callee, args) ->
                List.iter
                  (fun arg ->
                    match Option.bind (ty_of arg) Irty.pointee_struct with
                    | None -> ()
                    | Some s -> (
                      let libc name =
                        mark t s LIBC ~fn:f.fname ~iid:i.iid ~loc:i.iloc
                          ~why:
                            (Printf.sprintf
                               "pointer into struct '%s' passed to library \
                                function '%s'"
                               s name)
                      in
                      match callee with
                      | Ir.Cdirect callee_name ->
                        if Hashtbl.mem defined callee_name then
                          Option.iter
                            (fun a ->
                              if not (List.mem callee_name a.escapes) then
                                a.escapes <- callee_name :: a.escapes)
                            (attrs_of t s)
                        else libc callee_name
                      | Ir.Cbuiltin n | Ir.Cextern n -> libc n
                      | Ir.Cindirect _ ->
                        mark t s IND ~fn:f.fname ~iid:i.iid ~loc:i.iloc
                          ~why:
                            (Printf.sprintf
                               "pointer into struct '%s' passed to an \
                                indirect call"
                               s)))
                  args
              | Ir.Imov _ | Ir.Ibin _ | Ir.Iun _ | Ir.Iload _ | Ir.Istore _
              | Ir.Iaddrglob _ | Ir.Iaddrlocal _ | Ir.Iaddrstr _
              | Ir.Iaddrfunc _ | Ir.Iptradd _ ->
                ());
              (* ATKN: a field address used for anything except being the
                 address operand of a load/store, or a call argument *)
              let check_use (o : Ir.operand) ~tolerated =
                match o with
                | Ir.Oreg r -> (
                  match Hashtbl.find_opt fieldaddr_of r with
                  | Some (s, fi, def_iid, def_loc) ->
                    if not tolerated then begin
                      let field =
                        match Structs.find_opt prog.structs s with
                        | Some d when fi >= 0 && fi < Array.length d.fields ->
                          d.fields.(fi).name
                        | Some _ | None -> Printf.sprintf "#%d" fi
                      in
                      mark t s ATKN ~fn:f.fname ~iid:def_iid ~loc:def_loc
                        ~why:
                          (Printf.sprintf
                             "address of field '%s.%s' is taken and used \
                              outside a load/store"
                             s field)
                    end
                  | None -> ())
                | Ir.Oimm _ | Ir.Ofimm _ -> ()
              in
              (match i.idesc with
              | Ir.Iload (_, addr, _, _) -> check_use addr ~tolerated:true
              | Ir.Istore (addr, v, _, _) ->
                check_use addr ~tolerated:true;
                check_use v ~tolerated:false
              | Ir.Icall (_, _, args) ->
                (* address of a field passed to a function: tolerated under
                   the paper's assumption about callee behaviour — but the
                   field can no longer be proved dead *)
                List.iter
                  (fun a ->
                    (match a with
                    | Ir.Oreg r -> (
                      match Hashtbl.find_opt fieldaddr_of r with
                      | Some (s, fi, _, _) ->
                        Option.iter
                          (fun at ->
                            if not (List.mem fi at.addr_passed_fields) then
                              at.addr_passed_fields <-
                                fi :: at.addr_passed_fields)
                          (attrs_of t s)
                      | None -> ())
                    | Ir.Oimm _ | Ir.Ofimm _ -> ());
                    check_use a ~tolerated:true)
                  args
              | Ir.Ifieldaddr (_, base, _, _) -> check_use base ~tolerated:false
              | Ir.Imov (_, o) -> check_use o ~tolerated:false
              | Ir.Ibin (_, _, _, a, b) ->
                (* comparing field addresses is harmless; arithmetic is
                   not — be conservative and flag both *)
                check_use a ~tolerated:false;
                check_use b ~tolerated:false
              | Ir.Iun (_, _, _, a) -> check_use a ~tolerated:false
              | Ir.Icast (_, _, _, v, _) -> check_use v ~tolerated:false
              | Ir.Iptradd (_, b2, idx, _) ->
                check_use b2 ~tolerated:false;
                check_use idx ~tolerated:false
              | Ir.Ifree o -> check_use o ~tolerated:false
              | Ir.Imemset (d, v, n, _) ->
                check_use d ~tolerated:false;
                check_use v ~tolerated:false;
                check_use n ~tolerated:false
              | Ir.Imemcpy (d, sr, n, _) ->
                check_use d ~tolerated:false;
                check_use sr ~tolerated:false;
                check_use n ~tolerated:false
              | Ir.Ialloc (_, k, n, _) -> (
                check_use n ~tolerated:false;
                match k with
                | Ir.Arealloc o -> check_use o ~tolerated:false
                | Ir.Amalloc | Ir.Acalloc -> ())
              | Ir.Iaddrglob _ | Ir.Iaddrlocal _ | Ir.Iaddrstr _
              | Ir.Iaddrfunc _ ->
                ()))
            b.instrs;
          (* terminator uses *)
          match b.btermin with
          | Ir.Tbr (Ir.Oreg r, _, _) | Ir.Tret (Some (Ir.Oreg r)) -> (
            match Hashtbl.find_opt fieldaddr_of r with
            | Some (s, _, def_iid, def_loc) ->
              mark t s ATKN ~fn:f.fname ~iid:def_iid ~loc:def_loc
                ~why:
                  (Printf.sprintf
                     "address of a field of struct '%s' flows into a \
                      branch or return"
                     s)
            | None -> ())
          | Ir.Tbr _ | Ir.Tret _ | Ir.Tjmp _ -> ())
        f.fblocks)
    prog.funcs;

  (* --- IPA aggregation: escapes to functions outside the scope --- *)
  Hashtbl.iter
    (fun s (i : info) ->
      List.iter
        (fun callee ->
          if not (Hashtbl.mem defined callee) then
            mark t s LIBC
              ~why:
                (Printf.sprintf
                   "struct '%s' escapes to '%s', outside the compilation \
                    scope"
                   s callee))
        i.attrs.escapes)
    t.table;
  t

let reasons t s = (info t s).invalid

let witnesses t s =
  match Hashtbl.find_opt t.table s with
  | Some i -> i.witnesses
  | None -> []

let witnesses_for t s r =
  List.filter (fun w -> w.w_reason = r) (witnesses t s)

let is_legal ?(relax = false) t s =
  match Hashtbl.find_opt t.table s with
  | None -> false
  | Some i ->
    if relax then List.for_all relaxable i.invalid else i.invalid = []

let types t =
  Hashtbl.fold (fun s _ acc -> s :: acc) t.table [] |> List.sort String.compare

let legal_count ?relax t =
  List.length (List.filter (fun s -> is_legal ?relax t s) (types t))
