(* IR substrate: layout, lowering, CFG, dominators, Havlak loops, call
   graph, DCE, program copying. *)

module Loc = Slo_minic.Loc

let lower src = Lower.lower_source src

(* ------------------------- layout ------------------------- *)

let layout_of fields =
  let t = Structs.create () in
  Structs.define t "s" fields;
  (t, Layout.create t)

let fld ?bits name ty = { Structs.name; ty; bits }

let layout_scalars () =
  let _, l = layout_of [ fld "a" Irty.Char; fld "b" Irty.Int; fld "c" Irty.Char;
                         fld "d" Irty.Double ] in
  let off i = (Layout.field_layout l "s" i).byte_off in
  Alcotest.(check int) "a" 0 (off 0);
  Alcotest.(check int) "b aligned to 4" 4 (off 1);
  Alcotest.(check int) "c" 8 (off 2);
  Alcotest.(check int) "d aligned to 8" 16 (off 3);
  Alcotest.(check int) "size rounded" 24 (Layout.struct_size l "s");
  Alcotest.(check int) "align" 8 (Layout.struct_align l "s")

let layout_pointers_arrays () =
  let t = Structs.create () in
  Structs.define t "inner" [ fld "x" Irty.Int ];
  Structs.define t "s"
    [ fld "p" (Irty.Ptr (Irty.Struct "inner"));
      fld "arr" (Irty.Array (Irty.Int, 3)); fld "tail" Irty.Char ];
  let l = Layout.create t in
  Alcotest.(check int) "ptr size" 8 (Layout.sizeof l (Irty.Ptr Irty.Void));
  Alcotest.(check int) "arr off" 8 (Layout.field_layout l "s" 1).byte_off;
  Alcotest.(check int) "tail off" 20 (Layout.field_layout l "s" 2).byte_off;
  Alcotest.(check int) "size" 24 (Layout.struct_size l "s")

let layout_bitfields () =
  let _, l =
    layout_of
      [ fld ~bits:3 "a" Irty.Int; fld ~bits:5 "b" Irty.Int;
        fld ~bits:30 "c" Irty.Int; fld "d" Irty.Char ]
  in
  let fla = Layout.field_layout l "s" 0 in
  let flb = Layout.field_layout l "s" 1 in
  let flc = Layout.field_layout l "s" 2 in
  Alcotest.(check int) "a unit" 0 fla.byte_off;
  Alcotest.(check int) "a bit" 0 fla.bit_off;
  Alcotest.(check int) "b same unit" 0 flb.byte_off;
  Alcotest.(check int) "b bit" 3 flb.bit_off;
  (* 30 bits do not fit the remaining 24: new unit *)
  Alcotest.(check int) "c new unit" 4 flc.byte_off;
  Alcotest.(check int) "c bit" 0 flc.bit_off;
  Alcotest.(check int) "d after units" 8
    (Layout.field_layout l "s" 3).byte_off

let prop_layout_no_overlap =
  (* random scalar field lists: offsets never overlap, all within size *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 10)
        (oneofl [ Irty.Char; Irty.Short; Irty.Int; Irty.Long; Irty.Float;
                  Irty.Double ]))
  in
  QCheck.Test.make ~count:200 ~name:"layout fields never overlap"
    (QCheck.make gen)
    (fun tys ->
      let fields = List.mapi (fun i ty -> fld (Printf.sprintf "f%d" i) ty) tys in
      let _, l = layout_of fields in
      let size = Layout.struct_size l "s" in
      let ranges =
        List.mapi
          (fun i ty ->
            let o = (Layout.field_layout l "s" i).byte_off in
            let s = Layout.sizeof l ty in
            (o, o + s))
          tys
      in
      List.for_all (fun (_, e) -> e <= size) ranges
      && List.for_all
           (fun (i, (o1, e1)) ->
             List.for_all
               (fun (j, (o2, e2)) -> i = j || e1 <= o2 || e2 <= o1)
               (List.mapi (fun j r -> (j, r)) ranges))
           (List.mapi (fun i r -> (i, r)) ranges))

let prop_layout_alignment =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 10)
        (oneofl [ Irty.Char; Irty.Short; Irty.Int; Irty.Long; Irty.Double ]))
  in
  QCheck.Test.make ~count:200 ~name:"every field is naturally aligned"
    (QCheck.make gen)
    (fun tys ->
      let fields = List.mapi (fun i ty -> fld (Printf.sprintf "f%d" i) ty) tys in
      let _, l = layout_of fields in
      List.for_all
        (fun (i, ty) ->
          let o = (Layout.field_layout l "s" i).byte_off in
          o mod Layout.alignof l ty = 0)
        (List.mapi (fun i ty -> (i, ty)) tys))

(* ------------------------- lowering ------------------------- *)

let find_func prog name = Option.get (Ir.find_func prog name)

let lower_alloc_pattern () =
  let prog =
    lower
      "struct s { int v; };\n\
       struct s *p;\n\
       int main() { p = (struct s*)malloc(10 * sizeof(struct s)); return 0; }"
  in
  let main = find_func prog "main" in
  let found = ref false in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.idesc with
          | Ir.Ialloc (_, Ir.Amalloc, Ir.Oimm 10L, Irty.Struct "s") ->
            found := true
          | _ -> ())
        b.instrs)
    main.fblocks;
  Alcotest.(check bool) "typed alloc recognised" true !found;
  Alcotest.(check int) "no sizeof escapes" 0 (List.length prog.psizeof_uses)

let lower_sizeof_escape () =
  let prog =
    lower
      "struct s { int v; };\n\
       int main() { long b; b = 2 * sizeof(struct s); return (int)b; }"
  in
  Alcotest.(check int) "sizeof escape recorded" 1
    (List.length prog.psizeof_uses)

let lower_field_tags () =
  let prog =
    lower
      "struct s { int a; int b; };\n\
       struct s *p;\n\
       int main() { p = (struct s*)malloc(4 * sizeof(struct s));\n\
       p[1].b = 7; return p[1].b; }"
  in
  let main = find_func prog "main" in
  let tags = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.idesc with
          | Ir.Iload (_, _, _, Some a) -> tags := ("load", a.afield) :: !tags
          | Ir.Istore (_, _, _, Some a) -> tags := ("store", a.afield) :: !tags
          | _ -> ())
        b.instrs)
    main.fblocks;
  Alcotest.(check bool) "store tagged with field 1" true
    (List.mem ("store", 1) !tags);
  Alcotest.(check bool) "load tagged with field 1" true
    (List.mem ("load", 1) !tags)

let lower_short_circuit () =
  (* && must not evaluate the second operand when the first is false *)
  let prog =
    lower
      "int hits;\n\
       int bump() { hits = hits + 1; return 1; }\n\
       int main() { int x; hits = 0; x = 0; if (x && bump()) { x = 2; }\n\
       return hits; }"
  in
  let res = Slo_vm.Interp.run_program prog in
  Alcotest.(check int) "no bump" 0 res.exit_code

let lower_unsupported () =
  match
    lower "struct s { int v; }; int main() { struct s a; struct s b; a = b; return 0; }"
  with
  | exception Lower.Unsupported _ -> ()
  | exception Slo_minic.Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "expected whole-struct assignment to be rejected"

(* ------------------------- CFG / dominators ------------------------- *)

let diamond_prog =
  "int main(int a) { int x;\n\
   if (a > 0) { x = 1; } else { x = 2; }\n\
   return x; }"

let cfg_diamond () =
  let prog = lower diamond_prog in
  let cfg = Cfg.build (find_func prog "main") in
  let entry = Cfg.entry cfg in
  (match cfg.succs.(entry) with
  | [ a; b ] -> Alcotest.(check bool) "two succs" true (a <> b)
  | _ -> Alcotest.fail "diamond entry should branch");
  Alcotest.(check int) "rpo covers reachable" 4 (Array.length cfg.rpo)

let dom_diamond () =
  let prog = lower diamond_prog in
  let cfg = Cfg.build (find_func prog "main") in
  let dom = Dom.compute cfg in
  let entry = Cfg.entry cfg in
  let join =
    (* the unique block with two predecessors *)
    let j = ref (-1) in
    Array.iter
      (fun b -> if List.length cfg.preds.(b) = 2 then j := b)
      cfg.rpo;
    !j
  in
  Alcotest.(check bool) "join exists" true (join >= 0);
  Alcotest.(check (option int)) "idom(join) = entry" (Some entry)
    (Dom.idom dom join);
  Alcotest.(check bool) "entry dominates all" true
    (Array.for_all (fun b -> Dom.dominates dom entry b) cfg.rpo);
  Alcotest.(check bool) "branch arms do not dominate join" true
    (List.for_all
       (fun arm -> arm = entry || not (Dom.dominates dom arm join))
       cfg.preds.(join))

(* naive dominance oracle: b is dominated by a iff removing a disconnects
   b from entry *)
let naive_dominates (cfg : Cfg.t) a b =
  if a = b then true
  else begin
    let visited = Hashtbl.create 16 in
    let rec dfs x =
      if x <> a && not (Hashtbl.mem visited x) then begin
        Hashtbl.replace visited x ();
        List.iter dfs cfg.succs.(x)
      end
    in
    dfs (Cfg.entry cfg);
    not (Hashtbl.mem visited b)
  end

let nested_loop_prog =
  "int main(int n) { int i; int j; int s; s = 0;\n\
   for (i = 0; i < n; i++) {\n\
   for (j = 0; j < n; j++) { s = s + i * j;\n\
   if (s > 100) { s = s - 50; } }\n\
   while (s > 10) { s = s / 2; } }\n\
   return s; }"

let dom_matches_naive () =
  let prog = lower nested_loop_prog in
  let cfg = Cfg.build (find_func prog "main") in
  let dom = Dom.compute cfg in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "dom %d %d" a b)
            (naive_dominates cfg a b) (Dom.dominates dom a b))
        cfg.rpo)
    cfg.rpo

(* ------------------------- loops ------------------------- *)

let loops_nested () =
  let prog = lower nested_loop_prog in
  let cfg = Cfg.build (find_func prog "main") in
  let forest = Loop.compute cfg in
  let all = Loop.all_loops forest in
  Alcotest.(check int) "three loops" 3 (List.length all);
  let depths = List.map (fun (l : Loop.loop) -> l.depth) all in
  Alcotest.(check bool) "innermost first" true
    (List.sort (fun a b -> compare b a) depths = depths);
  Alcotest.(check int) "max depth 2" 2 (List.fold_left max 0 depths);
  (* exactly one top-level loop with two children *)
  (match Loop.top_level forest with
  | [ top ] ->
    Alcotest.(check int) "two inner loops" 2 (List.length top.children);
    Alcotest.(check bool) "no irreducible" true
      (List.for_all (fun (l : Loop.loop) -> not l.irreducible) all)
  | _ -> Alcotest.fail "expected a single outer loop");
  (* every back edge targets a recognised header *)
  List.iter
    (fun (l : Loop.loop) ->
      Alcotest.(check bool) "header has back edge" true
        (List.exists
           (fun p -> Loop.is_back_edge forest (p, l.header))
           cfg.preds.(l.header)))
    all

let loops_while_do () =
  let prog =
    lower
      "int main(int n) { int s; s = 0;\n\
       do { s = s + 1; } while (s < n);\n\
       while (s > 0) { s = s - 3; }\n\
       return s; }"
  in
  let cfg = Cfg.build (find_func prog "main") in
  let forest = Loop.compute cfg in
  Alcotest.(check int) "two loops" 2 (List.length (Loop.all_loops forest))

let loops_irreducible () =
  (* hand-built irreducible CFG: entry branches into the middle of a cycle *)
  let f =
    {
      Ir.fname = "irr"; fret = Irty.Int; fparams = []; flocals = [];
      fblocks = []; floc = Loc.dummy; next_reg = 1; regtys = [| Irty.Int |];
      next_block = 0;
    }
  in
  let mk term =
    let b = Ir.fresh_block f Loc.dummy in
    b.btermin <- term;
    b
  in
  let b0 = mk (Ir.Tjmp 0) and b1 = mk (Ir.Tjmp 0) and b2 = mk (Ir.Tjmp 0)
  and b3 = mk (Ir.Tret None) in
  b0.btermin <- Ir.Tbr (Ir.Oreg 0, b1.bid, b2.bid);
  b1.btermin <- Ir.Tjmp b2.bid;
  b2.btermin <- Ir.Tbr (Ir.Oreg 0, b1.bid, b3.bid);
  let cfg = Cfg.build f in
  let forest = Loop.compute cfg in
  Alcotest.(check bool) "detects irreducible region" true
    (List.exists (fun (l : Loop.loop) -> l.irreducible)
       (Loop.all_loops forest))

(* property: on random reducible CFGs built from structured code, every
   block inside a loop is dominated by its innermost loop header *)
let prop_loops_dominated =
  QCheck.Test.make ~count:60 ~name:"loop headers dominate their blocks"
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      let body =
        (* vary the structure with the seed *)
        match seed mod 4 with
        | 0 -> "while (a > 0) { a = a - 1; if (a % 2 == 0) { b = b + 1; } }"
        | 1 -> "for (i = 0; i < a; i++) { while (b < i) { b = b + 2; } }"
        | 2 -> "do { a = a - 1; for (i = 0; i < 3; i++) { b = b + i; } } while (a > 0);"
        | _ -> "while (a > 0) { a = a - 1; } while (b > 0) { b = b - 1; }"
      in
      let src =
        Printf.sprintf
          "int main(int a) { int b; int i; b = %d;\n%s\nreturn b; }" seed body
      in
      let prog = lower src in
      let cfg = Cfg.build (Option.get (Ir.find_func prog "main")) in
      let dom = Dom.compute cfg in
      let forest = Loop.compute cfg in
      List.for_all
        (fun (l : Loop.loop) ->
          List.for_all
            (fun b -> Dom.dominates dom l.header b)
            (Loop.all_blocks l))
        (Loop.all_loops forest))

(* ------------------------- call graph ------------------------- *)

let callgraph_basics () =
  let prog =
    lower
      "typedef int (*fn)();\n\
       int c() { return 1; }\n\
       int d() { return 2; }\n\
       int b() { return c(); }\n\
       int a() { return b() + c(); }\n\
       int main() { fn f; f = d; return a() + f(); }"
  in
  let cg = Callgraph.build prog in
  Alcotest.(check bool) "d's address is taken" true
    (Callgraph.address_taken cg "d");
  Alcotest.(check bool) "c is only called" false
    (Callgraph.address_taken cg "c");
  Alcotest.(check int) "a has two sites" 2
    (List.length (Callgraph.call_sites cg "a"));
  Alcotest.(check int) "c has two callers" 2
    (List.length (Callgraph.callers_of cg "c"));
  let sccs = Callgraph.sccs_topological cg in
  let pos name =
    let rec go i = function
      | [] -> -1
      | scc :: rest -> if List.mem name scc then i else go (i + 1) rest
    in
    go 0 sccs
  in
  Alcotest.(check bool) "main before a" true (pos "main" < pos "a");
  Alcotest.(check bool) "a before b" true (pos "a" < pos "b");
  Alcotest.(check bool) "b before c" true (pos "b" < pos "c")

let callgraph_recursion () =
  let prog =
    lower
      "int odd(int n);\n\
       int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }\n\
       int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }\n\
       int main() { return even(10); }"
  in
  let cg = Callgraph.build prog in
  let sccs = Callgraph.sccs_topological cg in
  Alcotest.(check bool) "mutual recursion in one SCC" true
    (List.exists
       (fun scc -> List.mem "even" scc && List.mem "odd" scc)
       sccs)

(* ------------------------- DCE / copy ------------------------- *)

let dce_removes_orphans () =
  let prog =
    lower "int g; int main() { g = 1; return g; }"
  in
  let main = find_func prog "main" in
  (* add an orphan chain by hand *)
  let r1 = Ir.fresh_reg main (Irty.Ptr Irty.Int) in
  let r2 = Ir.fresh_reg main Irty.Int in
  let entry = List.hd main.fblocks in
  entry.instrs <-
    entry.instrs
    @ [ { Ir.iid = 9001; iloc = Loc.dummy; idesc = Ir.Iaddrglob (r1, "g") };
        { Ir.iid = 9002; iloc = Loc.dummy;
          idesc = Ir.Iload (r2, Ir.Oreg r1, Irty.Int, None) } ];
  let removed = Dce.cleanup main in
  Alcotest.(check int) "both removed" 2 removed;
  let res = Slo_vm.Interp.run_program prog in
  Alcotest.(check int) "still correct" 1 res.exit_code

let copy_is_deep () =
  let prog = lower "int main() { return 5; }" in
  let copy = Ircopy.copy_program prog in
  let main = find_func copy "main" in
  (List.hd main.fblocks).btermin <- Ir.Tret (Some (Ir.Oimm 9L));
  Alcotest.(check int) "original unchanged" 5
    (Slo_vm.Interp.run_program prog).exit_code;
  Alcotest.(check int) "copy changed" 9
    (Slo_vm.Interp.run_program copy).exit_code

(* ------------------------- shape ------------------------- *)

(* a clean linked ring over one malloc: the poolable baseline the
   negative variants below each break in exactly one way *)
let ring_decls =
  "struct n { long v; struct n *next; };\n\
   struct n *items;\n\
   long acc;\n"

let ring_build =
  "  items = (struct n*)malloc(10 * sizeof(struct n));\n\
  \  for (i = 0; i < 10; i++) {\n\
  \    items[i].v = i;\n\
  \    items[i].next = items + ((i + 1) % 10);\n\
  \  }\n"

let ring_walk =
  "  p = items;\n\
  \  for (i = 0; i < 10; i++) { acc = acc + p->v; p = p->next; }\n\
  \  printf(\"%ld\\n\", acc);\n\
  \  return 0;\n"

let ring_src =
  ring_decls ^ "int main() {\n  long i; struct n *p;\n" ^ ring_build
  ^ ring_walk ^ "}\n"

let verdict_of src =
  match Shape.verdict (Shape.analyze (lower src)) "n" with
  | Some v -> v
  | None -> Alcotest.fail "struct n has no shape verdict"

let has_reason (v : Shape.verdict) r =
  List.exists (fun (w : Shape.witness) -> w.sw_reason = r) v.v_witnesses

let shape_ring_poolable () =
  let v = verdict_of ring_src in
  Alcotest.(check bool) "poolable" true v.v_poolable;
  Alcotest.(check (list int)) "link fields" [ 1 ] v.v_links;
  Alcotest.(check (list string)) "link names" [ "next" ] v.v_link_names;
  match v.v_alloc with
  | Some site -> Alcotest.(check string) "alloc in main" "main" site.sp_fn
  | None -> Alcotest.fail "no allocation site recorded"

let shape_second_site_refutes () =
  let src =
    ring_decls ^ "struct n *spare;\nint main() {\n  long i; struct n *p;\n"
    ^ ring_build
    ^ "  spare = (struct n*)malloc(4 * sizeof(struct n));\n"
    ^ "  spare[0].v = 1;\n" ^ ring_walk ^ "}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "MULTI witnessed" true (has_reason v Shape.MULTI)

let shape_null_store_refutes () =
  let src =
    ring_decls ^ "int main() {\n  long i; struct n *p;\n" ^ ring_build
    ^ "  items[9].next = 0;\n"
    ^ "  p = items;\n\
      \  for (i = 0; i < 9; i++) { acc = acc + p->v; p = p->next; }\n\
      \  printf(\"%ld\\n\", acc);\n\
      \  return 0;\n}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "NULLLINK witnessed" true
    (has_reason v Shape.NULLLINK)

let shape_interior_alias_refutes () =
  let src =
    ring_decls ^ "struct n **hook;\nint main() {\n  long i; struct n *p;\n"
    ^ ring_build ^ "  hook = &items[3].next;\n" ^ ring_walk ^ "}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "INTERIOR witnessed" true
    (has_reason v Shape.INTERIOR)

let shape_free_refutes () =
  let src =
    ring_decls ^ "int main() {\n  long i; struct n *p;\n" ^ ring_build
    ^ "  acc = 0;\n"
    ^ "  p = items;\n\
      \  for (i = 0; i < 10; i++) { acc = acc + p->v; p = p->next; }\n\
      \  free(items);\n\
      \  printf(\"%ld\\n\", acc);\n\
      \  return 0;\n}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "FREED witnessed" true (has_reason v Shape.FREED)

let shape_realloc_in_loop_refutes () =
  let src =
    ring_decls
    ^ "void grow() {\n\
      \  long i;\n\
      \  items = (struct n*)malloc(10 * sizeof(struct n));\n\
      \  for (i = 0; i < 10; i++) {\n\
      \    items[i].v = i;\n\
      \    items[i].next = items + ((i + 1) % 10);\n\
      \  }\n\
       }\n"
    ^ "int main() {\n  long i; long r; struct n *p;\n"
    ^ "  for (r = 0; r < 3; r++) { grow(); }\n"
    ^ ring_walk ^ "}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "REDOALLOC witnessed" true
    (has_reason v Shape.REDOALLOC)

let shape_null_test_refutes () =
  let src =
    ring_decls ^ "int main() {\n  long i; struct n *p;\n" ^ ring_build
    ^ "  p = items;\n\
      \  while (p != 0) { acc = acc + p->v; p = 0; }\n\
      \  printf(\"%ld\\n\", acc);\n\
      \  return 0;\n}\n"
  in
  let v = verdict_of src in
  Alcotest.(check bool) "refuted" false v.v_poolable;
  Alcotest.(check bool) "NULLLINK witnessed" true
    (has_reason v Shape.NULLLINK)

(* the pool rewrite end-to-end on the ring: struct gone, factored pool
   structs and anchors in place, behaviour bit-identical *)
let pool_rewrite_ring () =
  let module T = Slo_core.Transform in
  let prog = lower ring_src in
  let rep =
    Slo_suite.Oracle.run prog
      [ Slo_core.Heuristics.Pool { T.po_typ = "n"; po_links = [ 1 ] } ]
  in
  if not (Slo_suite.Oracle.ok rep) then
    Alcotest.fail (Slo_suite.Oracle.describe rep);
  let pooled = Ircopy.copy_program prog in
  T.apply pooled (T.Pool { T.po_typ = "n"; po_links = [ 1 ] });
  Alcotest.(check bool) "struct n removed" true
    (Structs.find_opt pooled.Ir.structs "n" = None);
  Alcotest.(check bool) "data pool defined" true
    (Structs.find_opt pooled.Ir.structs "n__pool" <> None);
  Alcotest.(check bool) "link piece defined" true
    (Structs.find_opt pooled.Ir.structs "n__next" <> None);
  let has_global g =
    List.exists (fun (n, _, _) -> String.equal n g) pooled.Ir.globals
  in
  Alcotest.(check bool) "data anchor" true (has_global "__pool_n__pool");
  Alcotest.(check bool) "link anchor" true (has_global "__pool_n__next")

(* one rule for a spec naming no struct, whatever the plan's kind, plus
   the pool's own precondition checks *)
let plans_reject_bad_specs () =
  let module T = Slo_core.Transform in
  let unknown kind = Some (Printf.sprintf "Transform.%s: unknown struct ghost" kind) in
  List.iter
    (fun (name, plan, want) ->
      let prog = lower ring_src in
      match T.apply prog plan with
      | () -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument msg -> (
        match want with
        | Some w -> Alcotest.(check string) name w msg
        | None -> ()))
    [
      ( "split: unknown struct",
        T.Split { T.s_typ = "ghost"; s_hot = [ 0 ]; s_cold = []; s_dead = [] },
        unknown "split" );
      ( "peel: unknown struct",
        T.Peel { T.p_typ = "ghost"; p_live = [ 0 ]; p_dead = [];
                 p_globals = [ "items" ] },
        unknown "peel" );
      ( "rebuild: unknown struct",
        T.Rebuild { T.r_typ = "ghost"; r_order = [ 0 ]; r_dead = [] },
        unknown "rebuild" );
      ("pad: unknown struct", T.Pad { T.pd_typ = "ghost"; pd_bytes = 8 },
       unknown "pad");
      ("pool: unknown struct", T.Pool { T.po_typ = "ghost"; po_links = [ 0 ] },
       unknown "pool");
      ("pool: empty links", T.Pool { T.po_typ = "n"; po_links = [] }, None);
      ("pool: non-link field", T.Pool { T.po_typ = "n"; po_links = [ 0 ] }, None);
      ( "pool: out-of-range field", T.Pool { T.po_typ = "n"; po_links = [ 7 ] },
        None );
    ]

let () =
  Alcotest.run "ir"
    [
      ( "layout",
        [
          Alcotest.test_case "scalars" `Quick layout_scalars;
          Alcotest.test_case "pointers/arrays" `Quick layout_pointers_arrays;
          Alcotest.test_case "bitfields" `Quick layout_bitfields;
          QCheck_alcotest.to_alcotest prop_layout_no_overlap;
          QCheck_alcotest.to_alcotest prop_layout_alignment;
        ] );
      ( "lower",
        [
          Alcotest.test_case "alloc pattern" `Quick lower_alloc_pattern;
          Alcotest.test_case "sizeof escape" `Quick lower_sizeof_escape;
          Alcotest.test_case "field tags" `Quick lower_field_tags;
          Alcotest.test_case "short circuit" `Quick lower_short_circuit;
          Alcotest.test_case "unsupported" `Quick lower_unsupported;
        ] );
      ( "cfg+dom",
        [
          Alcotest.test_case "diamond cfg" `Quick cfg_diamond;
          Alcotest.test_case "diamond dominators" `Quick dom_diamond;
          Alcotest.test_case "matches naive oracle" `Quick dom_matches_naive;
        ] );
      ( "loops",
        [
          Alcotest.test_case "nested" `Quick loops_nested;
          Alcotest.test_case "while/do" `Quick loops_while_do;
          Alcotest.test_case "irreducible" `Quick loops_irreducible;
          QCheck_alcotest.to_alcotest prop_loops_dominated;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "basics" `Quick callgraph_basics;
          Alcotest.test_case "recursion" `Quick callgraph_recursion;
        ] );
      ( "dce+copy",
        [
          Alcotest.test_case "dce" `Quick dce_removes_orphans;
          Alcotest.test_case "deep copy" `Quick copy_is_deep;
        ] );
      ( "shape",
        [
          Alcotest.test_case "clean ring poolable" `Quick
            shape_ring_poolable;
          Alcotest.test_case "second site refutes" `Quick
            shape_second_site_refutes;
          Alcotest.test_case "null store refutes" `Quick
            shape_null_store_refutes;
          Alcotest.test_case "interior alias refutes" `Quick
            shape_interior_alias_refutes;
          Alcotest.test_case "free refutes" `Quick shape_free_refutes;
          Alcotest.test_case "re-allocation refutes" `Quick
            shape_realloc_in_loop_refutes;
          Alcotest.test_case "null test refutes" `Quick
            shape_null_test_refutes;
          Alcotest.test_case "pool rewrite on the ring" `Quick
            pool_rewrite_ring;
          Alcotest.test_case "plans reject bad specs" `Quick
            plans_reject_bad_specs;
        ] );
    ]
