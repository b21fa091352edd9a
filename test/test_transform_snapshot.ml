(* Snapshot of the BE transformations: every plan list the framework can
   produce for every roster and case-study program, for
   examples/pool_demo.mc, and for a few small inline programs, applied
   with verification, printed, and digested.

   The plan lists, each distinct one once, are
   - the heuristic decisions under SPBO, ISPBO, ISPBO.NO and ISPBO.W,
     each with and without pooling;
   - one pool plan per poolable Shape verdict;
   - every autotuner candidate under the ISPBO defaults;
   - for the inline programs, a few hand-written plans that reach the
     rewrite arms the roster never does: split's and peel's [free]
     fan-outs, a peel anchor set to null, and a null compare between
     two peeled anchors.

   Registers and blocks are renumbered in order of first appearance
   within each function before digesting, so a rewrite that takes its
   fresh registers or blocks in another order still matches; anything
   else (an instruction, a type, an access tag, a struct or a global)
   does not. The expectation lives in transform_snapshot.expected. After
   a deliberate change to a transformation, regenerate it with

     dune exec test/test_transform_snapshot.exe -- --generate \
       > test/transform_snapshot.expected *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module C = Slo_core.Codec
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite
module Tune = Slo_tune.Tune

(* ---------------- inline programs ---------------- *)

let split_free_src =
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

let peel_free_src =
  "struct s { double w; long k; };\n\
   struct s *tab;\n\
   int main() { int i; long acc = 0; double f = 0.0;\n\
   tab = (struct s*)malloc(200 * sizeof(struct s));\n\
   for (i = 0; i < 200; i++) { tab[i].w = i * 0.25; tab[i].k = i * 3; }\n\
   for (i = 0; i < 200; i++) { acc = acc + tab[i].k; }\n\
   for (i = 0; i < 200; i = i + 10) { f = f + tab[i].w; }\n\
   free(tab);\n\
   printf(\"%ld %g\\n\", acc, f); return 0; }"

(* the anchor is nulled before the allocation, and one field is dead *)
let peel_null_src =
  "struct s { long a; long junk; double b; };\n\
   struct s *tab;\n\
   int main() { int i; long acc = 0;\n\
   tab = 0;\n\
   tab = (struct s*)malloc(64 * sizeof(struct s));\n\
   for (i = 0; i < 64; i++) { tab[i].a = i; tab[i].junk = 7; tab[i].b = i * 0.5; }\n\
   for (i = 0; i < 64; i++) { acc = acc + tab[i].a + (long)tab[i].b; }\n\
   printf(\"%ld\\n\", acc); return 0; }"

(* two anchors of one type, one allocated only after a null compare *)
let peel_two_src =
  "struct s { long a; long b; };\n\
   struct s *g1;\n\
   struct s *g2;\n\
   int main() { int i; long acc = 0;\n\
   g1 = (struct s*)malloc(32 * sizeof(struct s));\n\
   if (g2 == 0) { g2 = (struct s*)malloc(16 * sizeof(struct s)); }\n\
   for (i = 0; i < 32; i++) { g1[i].a = i; g1[i].b = 2 * i; }\n\
   for (i = 0; i < 16; i++) { g2[i].a = g1[i].b; g2[i].b = g1[i + 1].a; }\n\
   for (i = 0; i < 16; i++) { acc = acc + g2[i].a * g2[i].b; }\n\
   free(g1); free(g2);\n\
   printf(\"%ld\\n\", acc); return 0; }"

let inline_programs =
  [
    ( "inline-split-free",
      split_free_src,
      [ [ H.Split { T.s_typ = "s"; s_hot = [ 0; 4 ]; s_cold = [ 1; 2; 3 ];
                    s_dead = [] } ] ] );
    ( "inline-peel-free",
      peel_free_src,
      [ [ H.Peel { T.p_typ = "s"; p_live = [ 0; 1 ]; p_dead = [];
                   p_globals = [ "tab" ] } ] ] );
    ( "inline-peel-null",
      peel_null_src,
      [ [ H.Peel { T.p_typ = "s"; p_live = [ 0; 2 ]; p_dead = [ 1 ];
                   p_globals = [ "tab" ] } ] ] );
    ( "inline-peel-two",
      peel_two_src,
      [ [ H.Peel { T.p_typ = "s"; p_live = [ 1; 0 ]; p_dead = [];
                   p_globals = [ "g1"; "g2" ] } ] ] );
  ]

let programs =
  List.map (fun (e : Suite.entry) -> (e.name, e.source, []))
    (Suite.roster @ Suite.case_studies)
  @ [ ( "pool_demo",
        (* the test runs in test/, --generate from the repository root *)
        (let path = "examples/pool_demo.mc" in
         let path = if Sys.file_exists path then path else "../" ^ path in
         In_channel.with_open_bin path In_channel.input_all),
        [] ) ]
  @ inline_programs

(* ---------------- plan lists ---------------- *)

let plan_lists prog extra =
  let decided =
    List.concat_map
      (fun scheme ->
        List.map
          (fun pool ->
            H.plans (D.decide ~pool prog ~scheme ~feedback:None).decisions)
          [ false; true ])
      W.[ SPBO; ISPBO; ISPBO_NO; ISPBO_W ]
  in
  let pools =
    List.filter_map
      (fun (v : Shape.verdict) ->
        if v.v_poolable then
          Some [ H.Pool { T.po_typ = v.v_typ; po_links = v.v_links } ]
        else None)
      (Shape.verdicts (Shape.analyze prog))
  in
  let tuned =
    Tune.enumerate prog (Tune.default_config ~scheme:W.ISPBO ~feedback:None)
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun plans ->
      let key = List.map C.plan_to_string plans in
      if Hashtbl.mem seen key then false
      else (Hashtbl.replace seen key (); true))
    (decided @ pools @ tuned @ extra)

let snapshot (name, source, extra) =
  let prog = D.compile source in
  let b = Buffer.create 4096 in
  Printf.bprintf b "== %s\n" name;
  List.iter
    (fun plans ->
      let after = D.transform_with_plans ~verify:true prog plans in
      let text = Snapshot.canonical (Ir.string_of_program after) in
      Printf.bprintf b "%s %s\n"
        (Digest.to_hex (Digest.string text))
        (match plans with
        | [] -> "(none)"
        | _ -> String.concat " " (List.map C.plan_to_string plans)))
    (plan_lists prog extra);
  Buffer.contents b

(* ---------------- check ---------------- *)

let expected = lazy (Snapshot.sections "transform_snapshot.expected")

let check ((name, _, _) as p) () =
  match Hashtbl.find_opt (Lazy.force expected) name with
  | None -> Alcotest.failf "%s has no section in transform_snapshot.expected" name
  | Some want -> Alcotest.(check string) "snapshot" want (snapshot p)

let () =
  if Array.mem "--generate" Sys.argv then
    List.iter (fun p -> print_string (snapshot p)) programs
  else
    Alcotest.run "transform_snapshot"
      [
        ( "transformed IR",
          List.map
            (fun ((name, _, _) as p) -> Alcotest.test_case name `Quick (check p))
            programs );
      ]
