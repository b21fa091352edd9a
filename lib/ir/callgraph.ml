type call_site = {
  cs_caller : string;
  cs_callee : Ir.callee;
  cs_block : int;
  cs_instr : int;
}

type t = {
  sites : (string, call_site list) Hashtbl.t;   (* caller -> sites *)
  callers : (string, call_site list) Hashtbl.t; (* defined callee -> sites *)
  funcs : string list;                          (* definition order *)
  edges : (string, string list) Hashtbl.t;      (* caller -> defined callees *)
  taken : (string, unit) Hashtbl.t;             (* [Iaddrfunc] operands *)
}

let build (p : Ir.program) : t =
  let sites = Hashtbl.create 16 in
  let callers = Hashtbl.create 16 in
  let edges = Hashtbl.create 16 in
  let taken = Hashtbl.create 4 in
  let defined_set = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace defined_set f.Ir.fname ()) p.funcs;
  let funcs = List.map (fun f -> f.Ir.fname) p.funcs in
  List.iter
    (fun (f : Ir.func) ->
      let my_sites = ref [] in
      let my_edges = ref [] in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Icall (_, callee, _) ->
                let cs =
                  { cs_caller = f.fname; cs_callee = callee;
                    cs_block = b.bid; cs_instr = i.iid }
                in
                my_sites := cs :: !my_sites;
                (match callee with
                | Ir.Cdirect callee_name
                  when Hashtbl.mem defined_set callee_name ->
                  my_edges := callee_name :: !my_edges;
                  let prev =
                    Option.value ~default:[]
                      (Hashtbl.find_opt callers callee_name)
                  in
                  Hashtbl.replace callers callee_name (cs :: prev)
                | Ir.Cdirect _ | Ir.Cbuiltin _ | Ir.Cextern _
                | Ir.Cindirect _ ->
                  ())
              | Ir.Iaddrfunc (_, name) -> Hashtbl.replace taken name ()
              | Ir.Imov _ | Ir.Ibin _ | Ir.Iun _ | Ir.Icast _ | Ir.Iload _
              | Ir.Istore _ | Ir.Iaddrglob _ | Ir.Iaddrlocal _
              | Ir.Iaddrstr _ | Ir.Ifieldaddr _
              | Ir.Iptradd _ | Ir.Ialloc _ | Ir.Ifree _ | Ir.Imemset _
              | Ir.Imemcpy _ ->
                ())
            b.instrs)
        f.fblocks;
      Hashtbl.replace sites f.fname (List.rev !my_sites);
      Hashtbl.replace edges f.fname (List.rev !my_edges))
    p.funcs;
  { sites; callers; funcs; edges; taken }

let call_sites t f = Option.value ~default:[] (Hashtbl.find_opt t.sites f)
let callers_of t f = Option.value ~default:[] (Hashtbl.find_opt t.callers f)
let defined t = t.funcs
let address_taken t f = Hashtbl.mem t.taken f

(* Tarjan SCC; components complete callees-first and are consed onto the
   accumulator, so the final list comes out callers-first (topological). *)
let sccs_topological t =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    let succs = Option.value ~default:[] (Hashtbl.find_opt t.edges v) in
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      succs;
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun f -> if not (Hashtbl.mem index f) then strongconnect f) t.funcs;
  (* Tarjan emits SCCs callees-first; callers-first is the reverse *)
  !sccs
