(* The paper's framework: legality tests, affinity/hotness, heuristics,
   the four transformations, the advisor. *)

module L = Slo_core.Legality
module A = Slo_core.Affinity
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module Adv = Slo_core.Advisor
module D = Slo_core.Driver
module W = Slo_profile.Weights

let lower = Lower.lower_source
let analyze src = L.analyze (lower src)

let has_reason leg typ r = List.mem r (L.reasons leg typ)

(* ------------------------- legality ------------------------- *)

let legality_clean () =
  let leg =
    analyze
      "struct s { int a; int b; };\n\
       struct s *p;\n\
       int main() { p = (struct s*)malloc(8 * sizeof(struct s));\n\
       p[0].a = 1; return p[0].a + p[3].b; }"
  in
  Alcotest.(check bool) "legal" true (L.is_legal leg "s");
  let a = (L.info leg "s").attrs in
  Alcotest.(check bool) "dyn alloc" true a.dyn_alloc;
  Alcotest.(check bool) "global ptr" true a.has_global_ptr;
  Alcotest.(check (list string)) "anchor globals" [ "p" ] a.global_ptrs

let legality_cstt () =
  (* cast of a non-allocation value to the type *)
  let leg =
    analyze
      "struct s { int a; };\n\
       int main() { long x; struct s *p; x = 64;\n\
       p = (struct s*)x; return p == (struct s*)0; }"
  in
  Alcotest.(check bool) "CSTT" true (has_reason leg "s" L.CSTT);
  Alcotest.(check bool) "relax recovers" true (L.is_legal ~relax:true leg "s")

let legality_cstt_untyped_alloc () =
  let leg =
    analyze
      "struct s { int a; int b; };\n\
       int main() { struct s *p; p = (struct s*)malloc(32);\n\
       p->a = 1; return p->a; }"
  in
  Alcotest.(check bool) "untyped alloc is CSTT" true
    (has_reason leg "s" L.CSTT)

let legality_malloc_cast_tolerated () =
  let leg =
    analyze
      "struct s { int a; };\n\
       int main() { struct s *p;\n\
       p = (struct s*)malloc(4 * sizeof(struct s)); p->a = 1; return p->a; }"
  in
  Alcotest.(check bool) "matching alloc cast tolerated" true
    (L.is_legal leg "s")

let legality_cstf () =
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p;\n\
       int main() { long *raw;\n\
       p = (struct s*)malloc(4 * sizeof(struct s));\n\
       raw = (long*)p; return (int)raw[1]; }"
  in
  Alcotest.(check bool) "CSTF" true (has_reason leg "s" L.CSTF);
  Alcotest.(check bool) "relax recovers" true (L.is_legal ~relax:true leg "s")

let legality_atkn () =
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p;\n\
       int main() { long *ap;\n\
       p = (struct s*)malloc(4 * sizeof(struct s));\n\
       ap = &p->a; return (int)*ap; }"
  in
  Alcotest.(check bool) "ATKN" true (has_reason leg "s" L.ATKN)

let legality_atkn_call_tolerated () =
  (* the paper tolerates field addresses passed as call arguments *)
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p;\n\
       void bump(long *x) { *x = *x + 1; }\n\
       int main() { p = (struct s*)malloc(4 * sizeof(struct s));\n\
       p->a = 0; bump(&p->a); return (int)p->a; }"
  in
  Alcotest.(check bool) "tolerated" true (L.is_legal leg "s");
  (* ...but the field cannot be considered dead anymore *)
  Alcotest.(check (list int)) "addr passed recorded" [ 0 ]
    (L.info leg "s").attrs.addr_passed_fields

let legality_libc_ind () =
  let leg =
    analyze
      "struct s { long a; };\n\
       struct q { long b; };\n\
       typedef long (*cb)(struct q*);\n\
       extern long lib_fn(struct s*, long);\n\
       long handler(struct q *x) { return x->b; }\n\
       int main() { struct s *p; struct q *r; cb f;\n\
       p = (struct s*)malloc(2 * sizeof(struct s));\n\
       r = (struct q*)malloc(2 * sizeof(struct q));\n\
       f = (&handler);\n\
       lib_fn(p, 1); return (int)f(r); }"
  in
  Alcotest.(check bool) "LIBC" true (has_reason leg "s" L.LIBC);
  Alcotest.(check bool) "IND" true (has_reason leg "q" L.IND);
  Alcotest.(check bool) "LIBC not relaxable" false
    (L.is_legal ~relax:true leg "s");
  (* a struct pointer reaches the library through a [?:] with a null
     arm, whichever arm it is in *)
  let leg =
    analyze
      "struct s { long a; };\n\
       struct t { long b; };\n\
       extern long lib_s(struct s*, long);\n\
       extern long lib_t(struct t*, long);\n\
       int main() { struct s *p; struct t *q; long c; c = 1;\n\
       p = (struct s*)malloc(2 * sizeof(struct s));\n\
       q = (struct t*)malloc(2 * sizeof(struct t));\n\
       lib_s(c ? 0 : p, 1); lib_t(c ? q : 0, 1);\n\
       return (int)(p->a + q->b); }"
  in
  Alcotest.(check bool) "LIBC through ?: (null first)" true
    (has_reason leg "s" L.LIBC);
  Alcotest.(check bool) "LIBC through ?: (null last)" true
    (has_reason leg "t" L.LIBC)

let legality_smal_mset_nest () =
  let leg =
    analyze
      "struct inner { long x; };\n\
       struct outer { struct inner i; long y; };\n\
       struct one { long v; };\n\
       struct zeroed { long z; };\n\
       int main() { struct one *a; struct zeroed *b;\n\
       a = (struct one*)malloc(1 * sizeof(struct one));\n\
       b = (struct zeroed*)malloc(4 * sizeof(struct zeroed));\n\
       memset(b, 0, 4 * sizeof(struct zeroed));\n\
       a->v = 1; return (int)(a->v + b->z); }"
  in
  Alcotest.(check bool) "SMAL" true (has_reason leg "one" L.SMAL);
  Alcotest.(check bool) "MSET" true (has_reason leg "zeroed" L.MSET);
  Alcotest.(check bool) "NEST inner" true (has_reason leg "inner" L.NEST);
  Alcotest.(check bool) "NEST outer" true (has_reason leg "outer" L.NEST)

let legality_escape_to_defined_ok () =
  let leg =
    analyze
      "struct s { long a; };\n\
       long use(struct s *p) { return p->a; }\n\
       int main() { struct s *p;\n\
       p = (struct s*)malloc(4 * sizeof(struct s));\n\
       p->a = 3; return (int)use(p); }"
  in
  Alcotest.(check bool) "escape to defined function is fine" true
    (L.is_legal leg "s");
  Alcotest.(check (list string)) "tuple recorded" [ "use" ]
    (L.info leg "s").attrs.escapes

let legality_null_cast_ok () =
  let leg =
    analyze
      "struct s { long a; };\n\
       struct s *p;\n\
       int main() { p = (struct s*)malloc(2 * sizeof(struct s));\n\
       p->a = 1;\n\
       if (p != (struct s*)0) { return (int)p->a; } return 0; }"
  in
  Alcotest.(check bool) "null constant tolerated" true (L.is_legal leg "s")

(* ------------------------- affinity ------------------------- *)

let simple_hot_cold =
  "struct s { long hot_x; long hot_y; long cold_z; long never; };\n\
   struct s *p;\n\
   int main() { int i; int r; long acc = 0;\n\
   p = (struct s*)malloc(1000 * sizeof(struct s));\n\
   for (i = 0; i < 1000; i++) { p[i].hot_x = i; p[i].hot_y = i;\n\
   p[i].cold_z = i; p[i].never = 0; }\n\
   for (r = 0; r < 50; r++) {\n\
   for (i = 0; i < 1000; i++) { acc = acc + p[i].hot_x * p[i].hot_y; } }\n\
   for (i = 0; i < 1000; i = i + 100) { acc = acc + p[i].cold_z; }\n\
   return (int)(acc % 97); }"

let affinity_with ?feedback scheme src =
  let prog = lower src in
  let feedback =
    match feedback with
    | Some true ->
      let fb, _ = Slo_profile.Collect.collect prog in
      Some fb
    | _ -> None
  in
  let bw = W.block_weights prog scheme ~feedback in
  (prog, A.analyze prog bw)

let affinity_hotness_order () =
  let _, aff = affinity_with ~feedback:true W.PBO simple_hot_cold in
  let g = Option.get (A.graph aff "s") in
  let rel = A.relative_hotness g in
  Alcotest.(check (Alcotest.float 1e-9)) "hot_x max" 100.0 rel.(0);
  Alcotest.(check bool) "hot pair together" true (rel.(1) = 100.0);
  Alcotest.(check bool) "cold much colder" true (rel.(2) < 10.0);
  Alcotest.(check bool) "never is coldest" true (rel.(3) <= rel.(2))

let affinity_edges () =
  let _, aff = affinity_with ~feedback:true W.PBO simple_hot_cold in
  let g = Option.get (A.graph aff "s") in
  (* hot_x and hot_y co-occur in the hot loop *)
  Alcotest.(check bool) "pair edge" true (A.edge_weight g 0 1 > 0.0);
  (* cold_z appears alone in its loop: self edge *)
  Alcotest.(check bool) "self edge" true (A.edge_weight g 2 2 > 0.0);
  (* no hot-cold pair edge beyond the init loop weight *)
  Alcotest.(check bool) "hot/cold edge weaker" true
    (A.edge_weight g 0 2 < A.edge_weight g 0 1)

let affinity_read_write_counts () =
  let _, aff = affinity_with ~feedback:true W.PBO simple_hot_cold in
  let g = Option.get (A.graph aff "s") in
  Alcotest.(check bool) "hot_x mostly read" true (g.reads.(0) > g.writes.(0));
  Alcotest.(check (Alcotest.float 1e-9)) "never is never read" 0.0 g.reads.(3);
  Alcotest.(check bool) "never is written" true (g.writes.(3) > 0.0)

let groups_merge () =
  let _, aff = affinity_with W.SPBO simple_hot_cold in
  let groups = A.groups_of_type aff "s" in
  Alcotest.(check bool) "some groups" true (List.length groups >= 2);
  (* all groups carry positive weight and sorted fields *)
  List.iter
    (fun (fs, w) ->
      Alcotest.(check bool) "weight > 0" true (w > 0.0);
      Alcotest.(check bool) "sorted" true (List.sort compare fs = fs))
    groups

(* ------------------------- heuristics ------------------------- *)

let decide_on ?threshold src scheme =
  let prog = lower src in
  let feedback =
    if W.needs_profile scheme then begin
      let fb, _ = Slo_profile.Collect.collect prog in
      Some fb
    end
    else None
  in
  let leg, aff = D.analyze prog ~scheme ~feedback in
  (prog, H.decide ?threshold prog leg aff ~scheme)

let plan_of decisions typ =
  (List.find (fun (d : H.decision) -> String.equal d.d_typ typ) decisions)
    .d_plan

let heuristics_split () =
  let _, ds = decide_on simple_hot_cold W.PBO in
  match plan_of ds "s" with
  | Some (H.Split sp) ->
    Alcotest.(check (list int)) "dead = never" [ 3 ] sp.s_dead;
    Alcotest.(check bool) "cold_z split out" true (List.mem 2 sp.s_cold)
  | Some (H.Peel _) ->
    (* this type is in fact peelable (single anchor global) — also fine,
       peeling wins when feasible per the paper *)
    ()
  | _ -> Alcotest.fail "expected a transformation for s"

let heuristics_requires_two_cold () =
  (* only one cold field: the link pointer would not pay off *)
  let src =
    "struct s { long h1; long h2; long onecold; struct s *self; };\n\
     struct s *p;\n\
     long probe(struct s *q) { return q->onecold; }\n\
     int main() { int i; int r; long acc = 0;\n\
     p = (struct s*)malloc(500 * sizeof(struct s));\n\
     for (i = 0; i < 500; i++) { p[i].h1 = i; p[i].h2 = i;\n\
     p[i].onecold = i; p[i].self = p + i; }\n\
     for (r = 0; r < 60; r++) { for (i = 0; i < 500; i++) {\n\
     acc = acc + p[i].h1 + p[i].h2 + p[i].self->h1; } }\n\
     acc = acc + probe(p + 3);\n\
     return (int)(acc % 97); }"
  in
  let _, ds = decide_on src W.PBO in
  (match plan_of ds "s" with
  | None -> ()
  | Some p -> Alcotest.failf "expected no plan, got %s" (H.plan_summary p))

let heuristics_not_dyn_alloc () =
  let src =
    "struct s { long a; long b; };\n\
     struct s g;\n\
     int main() { g.a = 1; g.b = 2; return (int)(g.a + g.b); }"
  in
  let _, ds = decide_on src W.ISPBO in
  Alcotest.(check bool) "no plan for globals-only type" true
    (plan_of ds "s" = None)

let heuristics_threshold_matters () =
  (* a mid-hotness field moves between hot and cold with the threshold *)
  let _, ds3 = decide_on ~threshold:3.0 simple_hot_cold W.PBO in
  let _, ds60 = decide_on ~threshold:60.0 simple_hot_cold W.PBO in
  let cold_count ds =
    match plan_of ds "s" with
    | Some (H.Split sp) -> List.length sp.s_cold
    | Some (H.Peel p) -> List.length p.p_live (* peeling ignores T_s *)
    | _ -> -1
  in
  Alcotest.(check bool) "threshold shifts the cut or peeling wins" true
    (cold_count ds3 <= cold_count ds60 || cold_count ds3 >= 0)

let heuristics_scheme_thresholds () =
  Alcotest.(check (Alcotest.float 0.0)) "PBO 3%" 3.0 (H.threshold_for W.PBO);
  Alcotest.(check (Alcotest.float 0.0)) "ISPBO 7.5%" 7.5
    (H.threshold_for W.ISPBO)

(* ------------------------- transformations ------------------------- *)

let outputs_match src plans =
  let prog = lower src in
  let before = Slo_vm.Interp.run_program prog in
  let after_prog = D.transform_with_plans prog plans in
  let after = Slo_vm.Interp.run_program after_prog in
  Alcotest.(check string) "output preserved" before.output after.output;
  (prog, after_prog)

let split_semantics () =
  let src =
    "struct s { long a; double b; long c; long d; struct s *nxt; };\n\
     struct s *p;\n\
     int main() { int i; long acc = 0; double f = 0.0;\n\
     p = (struct s*)malloc(100 * sizeof(struct s));\n\
     for (i = 0; i < 100; i++) { p[i].a = i; p[i].b = i * 0.5;\n\
     p[i].c = -i; p[i].d = i * 3; p[i].nxt = p + ((i + 1) % 100); }\n\
     for (i = 0; i < 100; i++) { acc = acc + p[i].a + p[i].nxt->d;\n\
     f = f + p[i].b - p[i].c; }\n\
     free(p);\n\
     printf(\"%ld %g\\n\", acc, f); return 0; }"
  in
  let _, after =
    outputs_match src
      [ H.Split { T.s_typ = "s"; s_hot = [ 0; 4 ]; s_cold = [ 1; 2; 3 ];
                  s_dead = [] } ]
  in
  (* old type gone, new types exist with the link *)
  Alcotest.(check bool) "s removed" false (Structs.mem after.Ir.structs "s");
  let hot = Structs.find after.Ir.structs "s__hot" in
  Alcotest.(check int) "hot = 2 + link" 3 (Array.length hot.fields);
  Alcotest.(check string) "link last" T.link_field_name
    hot.fields.(2).Structs.name;
  Alcotest.(check int) "cold fields" 3
    (Array.length (Structs.find after.Ir.structs "s__cold").fields)

let split_dead_removal () =
  let src =
    "struct s { long live; long dead_f; long c1; long c2; };\n\
     struct s *p;\n\
     int main() { int i; long acc = 0;\n\
     p = (struct s*)malloc(50 * sizeof(struct s));\n\
     for (i = 0; i < 50; i++) { p[i].live = i; p[i].dead_f = i * 7;\n\
     p[i].c1 = 1; p[i].c2 = 2; }\n\
     for (i = 0; i < 50; i++) { acc = acc + p[i].live + p[i].c1 + p[i].c2; }\n\
     printf(\"%ld\\n\", acc); return 0; }"
  in
  let _, after =
    outputs_match src
      [ H.Split { T.s_typ = "s"; s_hot = [ 0 ]; s_cold = [ 2; 3 ];
                  s_dead = [ 1 ] } ]
  in
  (* the dead store is gone: no instruction tags field dead_f anymore *)
  let still_stores_dead =
    List.exists
      (fun (f : Ir.func) ->
        List.exists
          (fun (b : Ir.block) ->
            List.exists
              (fun (i : Ir.instr) ->
                match i.idesc with
                | Ir.Istore (_, _, _, Some a) ->
                  String.equal a.astruct "s__cold" && false
                  (* dead field is in neither part *)
                | _ -> false)
              b.instrs)
          f.fblocks)
      after.funcs
  in
  Alcotest.(check bool) "no dead stores" false still_stores_dead;
  Alcotest.(check int) "hot has live+link" 2
    (Array.length (Structs.find after.Ir.structs "s__hot").fields)

let peel_semantics () =
  let src =
    "struct s { double w; long k; };\n\
     struct s *tab;\n\
     int main() { int i; long acc = 0; double f = 0.0;\n\
     tab = (struct s*)malloc(200 * sizeof(struct s));\n\
     for (i = 0; i < 200; i++) { tab[i].w = i * 0.25; tab[i].k = i * 3; }\n\
     for (i = 0; i < 200; i++) { acc = acc + tab[i].k; }\n\
     for (i = 0; i < 200; i = i + 10) { f = f + tab[i].w; }\n\
     free(tab);\n\
     printf(\"%ld %g\\n\", acc, f); return 0; }"
  in
  let prog = lower src in
  Alcotest.(check bool) "feasible" true
    (T.peel_feasible prog ~typ:"s" ~globals:[ "tab" ]);
  let _, after =
    outputs_match src
      [ H.Peel { T.p_typ = "s"; p_live = [ 0; 1 ]; p_dead = [];
                 p_globals = [ "tab" ] } ]
  in
  Alcotest.(check bool) "pieces exist" true
    (Structs.mem after.Ir.structs "s__w" && Structs.mem after.Ir.structs "s__k");
  Alcotest.(check bool) "piece globals exist" true
    (List.exists (fun (n, _, _) -> String.equal n "tab__w") after.globals)

let peel_infeasible_cases () =
  (* a local pointer of the type breaks peeling *)
  let prog =
    lower
      "struct s { long a; };\n\
       struct s *g;\n\
       int main() { struct s *loc; int i; long acc = 0;\n\
       g = (struct s*)malloc(10 * sizeof(struct s));\n\
       loc = g;\n\
       for (i = 0; i < 10; i++) { acc = acc + loc[i].a; }\n\
       return (int)acc; }"
  in
  Alcotest.(check bool) "local pointer blocks peeling" false
    (T.peel_feasible prog ~typ:"s" ~globals:[ "g" ]);
  (* a recursive pointer field blocks peeling *)
  let prog2 =
    lower
      "struct s { long a; struct s *next; };\n\
       struct s *g;\n\
       int main() { g = (struct s*)malloc(4 * sizeof(struct s));\n\
       g[0].a = 1; g[0].next = g + 1; return (int)g[0].a; }"
  in
  Alcotest.(check bool) "recursive field blocks peeling" false
    (T.peel_feasible prog2 ~typ:"s" ~globals:[ "g" ])

let peel_infeasible_escapes () =
  (* the anchor pointer escapes into a callee: the access chain crosses a
     function boundary, so piece-pointer substitution cannot be local *)
  let prog =
    lower
      "struct s { long a; };\n\
       struct s *g;\n\
       long take(struct s *p) { return p[0].a; }\n\
       int main() { g = (struct s*)malloc(4 * sizeof(struct s));\n\
       g[0].a = 7; return (int)take(g); }"
  in
  Alcotest.(check bool) "pointer passed to callee blocks peeling" false
    (T.peel_feasible prog ~typ:"s" ~globals:[ "g" ]);
  (* the anchor pointer is cast to an integer: its numeric value escapes,
     and a peeled object has no single address to stand for it *)
  let prog2 =
    lower
      "struct s { long a; };\n\
       struct s *g;\n\
       long h;\n\
       int main() { g = (struct s*)malloc(4 * sizeof(struct s));\n\
       g[0].a = 3; h = (long)g;\n\
       return (int)(g[0].a + (h & 0)); }"
  in
  Alcotest.(check bool) "cast to integer blocks peeling" false
    (T.peel_feasible prog2 ~typ:"s" ~globals:[ "g" ]);
  (* a helper returns the anchor type: a struct s* flows out of a call,
     reaching memory the rewrite never renamed *)
  let prog3 =
    lower
      "struct s { long a; };\n\
       struct s *g;\n\
       struct s *pick() { return g; }\n\
       int main() { g = (struct s*)malloc(4 * sizeof(struct s));\n\
       g[0].a = 5; return (int)(pick()[0].a); }"
  in
  Alcotest.(check bool) "returning the anchor type blocks peeling" false
    (T.peel_feasible prog3 ~typ:"s" ~globals:[ "g" ])

let rebuild_reorders () =
  let src =
    "struct s { long a; long dead_f; long b; };\n\
     struct s *p;\n\
     int main() { int i; long acc = 0;\n\
     p = (struct s*)malloc(20 * sizeof(struct s));\n\
     for (i = 0; i < 20; i++) { p[i].a = i; p[i].dead_f = 9; p[i].b = 2 * i; }\n\
     for (i = 0; i < 20; i++) { acc = acc + p[i].a * p[i].b; }\n\
     printf(\"%ld\\n\", acc); return 0; }"
  in
  let _, after =
    outputs_match src
      [ H.Rebuild { T.r_typ = "s"; r_order = [ 2; 0 ]; r_dead = [ 1 ] } ]
  in
  let d = Structs.find after.Ir.structs "s" in
  Alcotest.(check int) "two fields" 2 (Array.length d.fields);
  Alcotest.(check string) "b first" "b" d.fields.(0).Structs.name;
  let layout = Layout.create after.structs in
  Alcotest.(check int) "size shrank" 16 (Layout.struct_size layout "s")

let split_improves_mcf_like () =
  (* behavioural check on the full driver: a hot/cold pointer-chasing
     program gets faster *)
  let prog = lower simple_hot_cold in
  let fb, _ = Slo_profile.Collect.collect prog in
  let ev =
    D.evaluate ~config:Slo_cachesim.Hierarchy.small ~scheme:W.PBO
      ~feedback:(Some fb) prog
  in
  Alcotest.(check string) "outputs equal" ev.e_before.m_result.output
    ev.e_after.m_result.output;
  Alcotest.(check bool) "transformed something" true
    (List.exists (fun (d : H.decision) -> d.d_plan <> None) ev.e_decisions);
  Alcotest.(check bool) "not slower" true (ev.e_speedup_pct > -2.0)

(* h264avc has no plan under PBO: evaluate measures it once and reuses
   the measurement for the transformed copy, which must be exactly what
   measuring that copy gives *)
let no_plan_measured_once () =
  let e = Slo_suite.Suite.find "h264avc" in
  let args = List.map (fun a -> max 1 (a / 8)) e.train_args in
  let prog = D.compile e.source in
  let fb, _ = Slo_profile.Collect.collect ~args prog in
  let ev = D.evaluate ~args ~scheme:W.PBO ~feedback:(Some fb) prog in
  Alcotest.(check int) "no plan" 0 (List.length (H.plans ev.e_decisions));
  Alcotest.(check bool) "after is before" true (ev.e_after == ev.e_before);
  Alcotest.(check bool) "= a fresh measurement of the copy" true
    (ev.e_after = D.measure ~args ev.e_transformed)

(* [simple_hot_cold]'s shape with a divisor argument: a plan under
   ISPBO, and a division by zero on the first statement for [d = 0] *)
let faulting_hot_cold =
  "struct rec { long hot1; double cold1; long hot2; double cold2; };\n\
   struct rec *arr;\n\
   long n;\n\
   int main(int d) { long it; long i; long s = 0; double c = 0.0;\n\
   n = 64 / d;\n\
   arr = (struct rec*)malloc(n * sizeof(struct rec));\n\
   for (it = 0; it < n; it++) { arr[it].hot1 = it; arr[it].hot2 = 2 * it;\n\
   arr[it].cold1 = 0.5; arr[it].cold2 = 0.25; }\n\
   for (it = 0; it < 20; it++) {\n\
   for (i = 0; i < n; i++) { s = s + arr[i].hot1 + arr[i].hot2; }\n\
   if (it % 10 == 0) { c = c + arr[it].cold1 + arr[it].cold2; } }\n\
   printf(\"%ld %g\\n\", s, c); return 0; }\n"

(* a faulting evaluation on the default (budgeted, pipelined when a
   spare is free) drain raises the serial fault and gives its spare
   back: 200 of them would exhaust the runtime's domain limit if each
   leaked a worker, and would drain the budget if each kept a spare *)
let evaluate_fault_returns_spares () =
  let prog = lower faulting_hot_cold in
  let eval d = D.evaluate ~args:[ d ] ~scheme:W.ISPBO ~feedback:None prog in
  let raised () =
    match eval 0 with
    | _ -> Alcotest.fail "expected a runtime fault"
    | exception e -> Printexc.to_string e
  in
  let free0 = Slo_exec.Cores.free () in
  let serial =
    Printexc.to_string (Slo_vm.Rt.Runtime_error "integer division by zero")
  in
  for _ = 1 to 200 do
    Alcotest.(check string) "serial fault" serial (raised ())
  done;
  Alcotest.(check int) "every spare given back" free0
    (Slo_exec.Cores.free ());
  Alcotest.(check bool) "a plan is measured" true
    (H.plans (eval 1).e_decisions <> [])

(* each stage failure maps to its constructor and renders with and
   without a file prefix; other exceptions propagate *)
let stage_errors () =
  let rendered f =
    match D.guard f with
    | Ok _ -> Alcotest.fail "expected a stage error"
    | Error e -> (D.render_error ~file:"f.mc" e, D.render_error e)
  in
  let check_pair name (with_file, bare) f =
    let got_file, got_bare = rendered f in
    Alcotest.(check string) (name ^ " with file") with_file got_file;
    Alcotest.(check string) (name ^ " bare") bare got_bare
  in
  let compile src () = D.compile ~verify:true src in
  check_pair "lexical"
    ( "f.mc:1:24: lexical error: unexpected character '$'",
      "1:24: lexical error: unexpected character '$'" )
    (compile "int main() { int x = 1 $ 2; return 0; }");
  check_pair "syntax"
    ( "f.mc:1:11: syntax error: expected type, found '{'",
      "1:11: syntax error: expected type, found '{'" )
    (compile "int main( { return 0; }");
  check_pair "type"
    ( "f.mc:1:21: type error: unknown identifier 'undefined_var'",
      "1:21: type error: unknown identifier 'undefined_var'" )
    (compile "int main() { return undefined_var; }");
  let prog = lower faulting_hot_cold in
  check_pair "runtime"
    ( "f.mc: runtime error: integer division by zero",
      "runtime error: integer division by zero" )
    (fun () -> D.measure ~args:[ 0 ] prog);
  check_pair "d-cache scheme"
    ( "f.mc: d-cache scheme \"dmiss\" attributes PMU samples, not block \
       weights",
      "d-cache scheme \"dmiss\" attributes PMU samples, not block weights" )
    (fun () -> D.feedback_for prog ~scheme:W.DMISS);
  Alcotest.check_raises "other exceptions propagate" Not_found (fun () ->
      ignore (D.guard (fun () -> raise Not_found)))

(* the feedback rule: profile-based schemes collect on the run's args,
   static ones get none *)
let feedback_rule () =
  let prog = lower simple_hot_cold in
  Alcotest.(check bool) "static: none" true
    (D.feedback_for prog ~scheme:W.ISPBO = None);
  let collected = fst (Slo_profile.Collect.collect prog) in
  Alcotest.(check bool) "pbo: the collected profile" true
    (D.feedback_for prog ~scheme:W.PBO = Some collected)

(* ------------------------- advisor ------------------------- *)

let advisor_report () =
  let prog = lower simple_hot_cold in
  let fb, _ = Slo_profile.Collect.collect prog in
  let leg, aff = D.analyze prog ~scheme:W.PBO ~feedback:(Some fb) in
  let decisions = H.decide prog leg aff ~scheme:W.PBO in
  let matched = Slo_profile.Matching.apply prog fb in
  let adv =
    Adv.build prog leg aff ~decisions ~dcache:(Some matched.instr_dcache)
  in
  let rep = Adv.report adv in
  Alcotest.(check string) "the advise stage builds the same report" rep
    (Adv.report (D.advise prog ~scheme:W.PBO ~feedback:(Some fb)));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %s" needle) true
        (Astring.String.is_infix ~affix:needle rep))
    [ "Type     : s"; "hot_x"; "*dead*"; "aff:"; "hot:"; "read :" ];
  match Adv.vcg adv "s" with
  | Some v ->
    Alcotest.(check bool) "vcg graph" true
      (Astring.String.is_infix ~affix:"graph:" v
      && Astring.String.is_infix ~affix:"hot_x" v)
  | None -> Alcotest.fail "expected vcg output"

(* ---------------- witnesses and allocation sites ---------------- *)

let witness_locations () =
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p; long sink;\n\
       int main() { long *raw;\n\
       p = (struct s*)malloc(4 * sizeof(struct s));\n\
       raw = (long*)p;\n\
       sink = raw[0];\n\
       return (int)(p->a + sink); }"
  in
  match L.witnesses_for leg "s" L.CSTF with
  | [] -> Alcotest.fail "CSTF carries no witness"
  | w :: _ ->
    Alcotest.(check (option string)) "witness in main" (Some "main") w.w_fn;
    (match w.w_loc with
    | Some l -> Alcotest.(check int) "witness on the cast line" 5 l.Ir.Loc.line
    | None -> Alcotest.fail "CSTF witness carries no location");
    Alcotest.(check bool) "explanation names both types" true
      (Astring.String.is_infix ~affix:"struct 's'" w.w_explain)

let every_reason_is_witnessed () =
  let leg =
    analyze
      "struct n { long x; };\n\
       struct s { struct n inner; long b; };\n\
       extern long lib(struct s*, long);\n\
       struct s *p;\n\
       int main() { char *c;\n\
       p = (struct s*)malloc(2 * sizeof(struct s));\n\
       c = (char*)p;\n\
       lib(p, sizeof(struct s) + 1);\n\
       return (int)p->b + (int)*c; }"
  in
  List.iter
    (fun typ ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s witnessed" typ (L.reason_name r))
            true
            (L.witnesses_for leg typ r <> []))
        (L.reasons leg typ))
    (L.types leg)

let all_alloc_sites_recorded () =
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p; struct s *q;\n\
       struct s *mk() { return (struct s*)malloc(2 * sizeof(struct s)); }\n\
       int main() {\n\
       p = (struct s*)malloc(2 * sizeof(struct s));\n\
       q = mk();\n\
       p->a = 1; q->b = 2;\n\
       return (int)(p->a + q->b); }"
  in
  match L.attrs_of leg "s" with
  | None -> Alcotest.fail "no attrs for s"
  | Some a ->
    Alcotest.(check int) "both allocation sites recorded" 2
      (List.length a.alloc_sites);
    let lines =
      List.map (fun (al : L.alloc_site) -> al.al_loc.Ir.Loc.line) a.alloc_sites
      |> List.sort compare
    in
    Alcotest.(check (list int)) "sites on the malloc lines" [ 3; 5 ] lines;
    Alcotest.(check bool) "distinct functions" true
      (List.exists (fun (al : L.alloc_site) -> al.al_fn = "mk") a.alloc_sites
      && List.exists
           (fun (al : L.alloc_site) -> al.al_fn = "main")
           a.alloc_sites)

let witnesses_deduplicated () =
  (* the same cast construct seen across fixpoint/rescans must yield one
     witness, and reasons must not repeat *)
  let leg =
    analyze
      "struct s { long a; long b; };\n\
       struct s *p; long sink;\n\
       int main() { long *r1; long *r2;\n\
       p = (struct s*)malloc(4 * sizeof(struct s));\n\
       r1 = (long*)p;\n\
       r2 = (long*)p;\n\
       sink = r1[0] + r2[0];\n\
       return (int)sink; }"
  in
  let ws = L.witnesses_for leg "s" L.CSTF in
  (* two distinct casts: two witnesses, each unique *)
  Alcotest.(check int) "one witness per construct" 2 (List.length ws);
  let key (w : L.witness) = (w.w_fn, w.w_iid, w.w_explain) in
  Alcotest.(check int) "no duplicates" 2
    (List.length (List.sort_uniq compare (List.map key ws)))

(* ------------------------- codec ------------------------- *)

module C = Slo_core.Codec

let codec_schemes () =
  (* every scheme round-trips through its canonical spelling *)
  List.iter
    (fun (name, s) ->
      Alcotest.(check string) "canonical" name (C.scheme_name s);
      match C.scheme_of_string name with
      | Ok s' -> Alcotest.(check bool) ("parse " ^ name) true (s' = s)
      | Error e -> Alcotest.failf "scheme %s did not parse: %s" name e)
    C.scheme_assoc;
  Alcotest.(check int) "covers Weights.all"
    (List.length W.all) (List.length C.scheme_assoc);
  (* case-insensitive *)
  (match C.scheme_of_string "ISPBO" with
  | Ok s -> Alcotest.(check string) "upper-case accepted" "ispbo" (C.scheme_name s)
  | Error e -> Alcotest.fail e);
  (* errors name the bad spelling and the valid set *)
  match C.scheme_of_string "nope" with
  | Ok _ -> Alcotest.fail "bogus scheme parsed"
  | Error e ->
    Alcotest.(check bool) "names the spelling" true
      (Astring.String.is_infix ~affix:"nope" e);
    Alcotest.(check bool) "lists valid ones" true
      (Astring.String.is_infix ~affix:"ispbo" e)

let codec_plans () =
  let plans =
    [
      H.Split { T.s_typ = "node"; s_hot = [ 2; 0 ]; s_cold = [ 1; 3 ]; s_dead = [ 4 ] };
      H.Split { T.s_typ = "node"; s_hot = [ 0 ]; s_cold = [ 1 ]; s_dead = [] };
      H.Peel
        { T.p_typ = "arc"; p_live = [ 0; 1 ]; p_dead = []; p_globals = [ "arcs"; "head" ] };
      H.Peel { T.p_typ = "arc"; p_live = [ 3 ]; p_dead = [ 0 ]; p_globals = [] };
      H.Rebuild { T.r_typ = "cell"; r_order = [ 1; 0 ]; r_dead = [ 2 ] };
      H.Pad { T.pd_typ = "cell__hot"; pd_bytes = 8 };
      H.Pool { T.po_typ = "node"; po_links = [ 2; 3; 4; 5 ] };
      H.Pool { T.po_typ = "lnode"; po_links = [ 1 ] };
    ]
  in
  List.iter
    (fun p ->
      let s = C.plan_to_string p in
      match C.plan_of_string s with
      | Ok p' ->
        Alcotest.(check bool) ("round-trip " ^ s) true (p' = p);
        (* canonical: re-encoding is byte-identical *)
        Alcotest.(check string) ("canonical " ^ s) s (C.plan_to_string p')
      | Error e -> Alcotest.failf "%s did not parse back: %s" s e)
    plans;
  (* the documented spellings parse *)
  (match C.plan_of_string "split:node:hot=2,0:cold=1,3:dead=4" with
  | Ok (H.Split sp) ->
    Alcotest.(check (list int)) "hot order kept" [ 2; 0 ] sp.T.s_hot
  | Ok _ -> Alcotest.fail "parsed as the wrong kind"
  | Error e -> Alcotest.fail e);
  (match C.plan_of_string "pool:node:links=2,3,4,5" with
  | Ok (H.Pool sp) ->
    Alcotest.(check (list int)) "links kept" [ 2; 3; 4; 5 ] sp.T.po_links
  | Ok _ -> Alcotest.fail "parsed as the wrong kind"
  | Error e -> Alcotest.fail e);
  (* malformed inputs are errors, not crashes *)
  List.iter
    (fun bad ->
      match C.plan_of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error _ -> ())
    [
      "";
      "shrink:node:hot=0";            (* unknown kind *)
      "split:node";                   (* missing fields *)
      "split:node:hot=x:cold=:dead="; (* non-numeric index *)
      "pad:node:bytes=";              (* empty int *)
      "split:node:hot=0:cold=1:dead=:extra=2"; (* trailing garbage *)
      "pool:node";                    (* missing links field *)
      "pool:node:links=";             (* a pool needs at least one link *)
      "pool:node:links=1,x";          (* non-numeric link index *)
      "pool:node:links=1:extra=2";    (* trailing garbage *)
    ]

let () =
  Alcotest.run "core"
    [
      ( "legality",
        [
          Alcotest.test_case "clean type" `Quick legality_clean;
          Alcotest.test_case "CSTT" `Quick legality_cstt;
          Alcotest.test_case "CSTT untyped alloc" `Quick
            legality_cstt_untyped_alloc;
          Alcotest.test_case "malloc cast tolerated" `Quick
            legality_malloc_cast_tolerated;
          Alcotest.test_case "CSTF" `Quick legality_cstf;
          Alcotest.test_case "ATKN" `Quick legality_atkn;
          Alcotest.test_case "ATKN call tolerated" `Quick
            legality_atkn_call_tolerated;
          Alcotest.test_case "LIBC+IND" `Quick legality_libc_ind;
          Alcotest.test_case "SMAL+MSET+NEST" `Quick legality_smal_mset_nest;
          Alcotest.test_case "escape to defined" `Quick
            legality_escape_to_defined_ok;
          Alcotest.test_case "null cast" `Quick legality_null_cast_ok;
          Alcotest.test_case "witness locations" `Quick witness_locations;
          Alcotest.test_case "reasons witnessed" `Quick
            every_reason_is_witnessed;
          Alcotest.test_case "alloc sites" `Quick all_alloc_sites_recorded;
          Alcotest.test_case "witness dedup" `Quick witnesses_deduplicated;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "hotness order" `Quick affinity_hotness_order;
          Alcotest.test_case "edges" `Quick affinity_edges;
          Alcotest.test_case "read/write" `Quick affinity_read_write_counts;
          Alcotest.test_case "groups" `Quick groups_merge;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "split" `Quick heuristics_split;
          Alcotest.test_case "needs two cold" `Quick
            heuristics_requires_two_cold;
          Alcotest.test_case "needs dyn alloc" `Quick heuristics_not_dyn_alloc;
          Alcotest.test_case "threshold" `Quick heuristics_threshold_matters;
          Alcotest.test_case "scheme thresholds" `Quick
            heuristics_scheme_thresholds;
        ] );
      ( "transform",
        [
          Alcotest.test_case "split semantics" `Quick split_semantics;
          Alcotest.test_case "dead removal" `Quick split_dead_removal;
          Alcotest.test_case "peel semantics" `Quick peel_semantics;
          Alcotest.test_case "peel infeasible" `Quick peel_infeasible_cases;
          Alcotest.test_case "peel infeasible: escapes" `Quick
            peel_infeasible_escapes;
          Alcotest.test_case "rebuild" `Quick rebuild_reorders;
          Alcotest.test_case "driver end-to-end" `Quick split_improves_mcf_like;
          Alcotest.test_case "no plan measured once" `Quick
            no_plan_measured_once;
        ] );
      ( "driver",
        [
          Alcotest.test_case "fault returns spares" `Quick
            evaluate_fault_returns_spares;
          Alcotest.test_case "stage errors" `Quick stage_errors;
          Alcotest.test_case "feedback rule" `Quick feedback_rule;
        ] );
      ( "advisor",
        [ Alcotest.test_case "report+vcg" `Quick advisor_report ] );
      ( "codec",
        [
          Alcotest.test_case "schemes" `Quick codec_schemes;
          Alcotest.test_case "plans" `Quick codec_plans;
        ] );
    ]
