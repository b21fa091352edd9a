(* Pipeline fuzzing: generate random Mini-C programs over a random struct,
   apply random (but well-formed) transformation specs, and hand the pair
   to the differential oracle (Slo_suite.Oracle): both IRs must pass the
   well-formedness verifier, the outputs must be byte-identical, and every
   live field must be touched the exact same number of times.

   Programs are generated from a small structured [spec] so QCheck can
   shrink failures: a counterexample minimizes to the fewest loops, fields
   and elements that still fail, and is printed as Mini-C source text.

   Set QCHECK_LONG=1 (e.g. via `make fuzz`) for a 10x iteration count. *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform
module W = Slo_profile.Weights
module O = Slo_suite.Oracle

(* ------------------------------------------------------------------ *)
(* Random program specs                                                *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_nfields : int;  (* fields of struct s: f0 .. f{n-1} *)
  sp_nelems : int;   (* elements in each anchor array *)
  sp_loops : (int * int) list;  (* per loop nest: field mask, rounds *)
  sp_second : bool;  (* a second anchor global of the same type *)
  sp_free : bool;    (* free the arrays at the end *)
}

let field_ty_name i = match i mod 3 with
  | 0 -> "long"
  | 1 -> "double"
  | _ -> "int"

(* fields read by the loops of [sp] (the rest are written at init time
   only, i.e. dead) *)
let read_fields sp =
  let fields_of_loop li (mask, _rounds) =
    let fs =
      List.filter (fun i -> mask land (1 lsl i) <> 0)
        (List.init sp.sp_nfields Fun.id)
    in
    if fs = [] then [ li mod sp.sp_nfields ] else fs
  in
  List.concat (List.mapi fields_of_loop sp.sp_loops)
  |> List.sort_uniq compare

let render sp : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let tabs = if sp.sp_second then [ "tab"; "tab2" ] else [ "tab" ] in
  pf "struct s {\n";
  for i = 0 to sp.sp_nfields - 1 do
    pf "  %s f%d;\n" (field_ty_name i) i
  done;
  pf "};\n";
  List.iter (fun t -> pf "struct s *%s;\n" t) tabs;
  pf "long acc;\ndouble facc;\n";
  pf "int main() {\n  long i; long r;\n";
  List.iteri
    (fun ti t ->
      pf "  %s = (struct s*)malloc(%d * sizeof(struct s));\n" t sp.sp_nelems;
      pf "  for (i = 0; i < %d; i++) {\n" sp.sp_nelems;
      for i = 0 to sp.sp_nfields - 1 do
        match i mod 3 with
        | 1 -> pf "    %s[i].f%d = i * 0.5 + %d.0;\n" t i (i + ti)
        | _ -> pf "    %s[i].f%d = i * %d + %d;\n" t i (i + 2) (ti + 1)
      done;
      pf "  }\n")
    tabs;
  List.iteri
    (fun li (mask, rounds) ->
      let fields =
        let fs =
          List.filter (fun i -> mask land (1 lsl i) <> 0)
            (List.init sp.sp_nfields Fun.id)
        in
        if fs = [] then [ li mod sp.sp_nfields ] else fs
      in
      pf "  for (r = 0; r < %d; r++) {\n" rounds;
      pf "    for (i = 0; i < %d; i = i + %d) {\n" sp.sp_nelems ((li mod 3) + 1);
      List.iter
        (fun t ->
          List.iter
            (fun fi ->
              match fi mod 3 with
              | 1 -> pf "      facc = facc + %s[i].f%d;\n" t fi
              | _ ->
                pf "      acc = acc + %s[i].f%d;\n" t fi;
                if (li + fi) mod 2 = 0 then
                  pf "      %s[i].f%d = %s[i].f%d + 1;\n" t fi t fi)
            fields)
        tabs;
      pf "    }\n  }\n")
    sp.sp_loops;
  if sp.sp_free then List.iter (fun t -> pf "  free(%s);\n" t) tabs;
  pf "  printf(\"%%ld %%g\\n\", acc, facc);\n  return 0;\n}\n";
  Buffer.contents buf

let gen_spec : spec QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 9 >>= fun sp_nfields ->
  int_range 2 5 >>= fun nloops ->
  int_range 10 60 >>= fun sp_nelems ->
  list_repeat nloops
    (pair (int_range 0 ((1 lsl sp_nfields) - 1)) (int_range 1 4))
  >>= fun sp_loops ->
  bool >>= fun sp_second ->
  bool >>= fun sp_free ->
  return { sp_nfields; sp_nelems; sp_loops; sp_second; sp_free }

(* shrink toward the simplest failing program: fewer loops first, then a
   single anchor, no free, fewer elements, fewer fields, smaller masks *)
let shrink_spec sp yield =
  QCheck.Shrink.list_spine sp.sp_loops (fun l ->
      yield { sp with sp_loops = l });
  if sp.sp_second then yield { sp with sp_second = false };
  if sp.sp_free then yield { sp with sp_free = false };
  QCheck.Shrink.int sp.sp_nelems (fun n ->
      if n >= 1 then yield { sp with sp_nelems = n });
  QCheck.Shrink.int sp.sp_nfields (fun n ->
      if n >= 2 then yield { sp with sp_nfields = n });
  QCheck.Shrink.list_elems
    (QCheck.Shrink.pair QCheck.Shrink.int QCheck.Shrink.int)
    sp.sp_loops
    (fun l -> yield { sp with sp_loops = l })

(* counterexamples print as Mini-C source, not an AST or spec dump *)
let arbitrary_spec =
  QCheck.make gen_spec ~print:render ~shrink:shrink_spec

let anchors sp = if sp.sp_second then [ "tab"; "tab2" ] else [ "tab" ]

let oracle_holds src plans =
  let rep = O.run_source src plans in
  if O.ok rep then true
  else QCheck.Test.fail_reportf "%s" (O.describe rep)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* an optional trailing pad of 1-64 bytes on the type a plan leaves
   behind, as the autotuner appends one after a split or rebuild *)
let arbitrary_pad = QCheck.(option (int_range 1 64))

let with_pad typ pad plans =
  match pad with
  | None -> plans
  | Some pd_bytes -> plans @ [ H.Pad { T.pd_typ = typ; pd_bytes } ]

(* random split: partition live fields into hot/cold by seed; fields never
   read are dead *)
let prop_random_split =
  QCheck.Test.make ~count:(Qcheck_long.iters 60)
    ~name:"random split preserves behaviour"
    (QCheck.triple arbitrary_spec QCheck.(int_range 0 10_000) arbitrary_pad)
    (fun (sp, seed, pad) ->
      let all = List.init sp.sp_nfields Fun.id in
      let read = read_fields sp in
      let dead = List.filter (fun i -> not (List.mem i read)) all in
      let hot, cold =
        List.partition (fun i -> (seed lsr (i mod 12)) land 1 = 0) read
      in
      let hot, cold = if hot = [] then (cold, hot) else (hot, cold) in
      QCheck.assume (hot <> []);
      oracle_holds (render sp)
        (with_pad "s__hot" pad
           [ H.Split { T.s_typ = "s"; s_hot = hot; s_cold = cold;
                       s_dead = dead } ]))

(* random peel, including the two-anchor-global configuration; gated on
   the same feasibility test the heuristics use *)
let prop_random_peel =
  QCheck.Test.make ~count:(Qcheck_long.iters 60)
    ~name:"random peel preserves behaviour"
    arbitrary_spec
    (fun sp ->
      let src = render sp in
      let compiled = D.compile src in
      QCheck.assume
        (T.peel_feasible compiled ~typ:"s" ~globals:(anchors sp));
      let all = List.init sp.sp_nfields Fun.id in
      let read = read_fields sp in
      let dead = List.filter (fun i -> not (List.mem i read)) all in
      QCheck.assume (read <> []);
      oracle_holds src
        [ H.Peel { T.p_typ = "s"; p_live = read; p_dead = dead;
                   p_globals = anchors sp } ])

(* random dead-field removal + reordering *)
let prop_random_rebuild =
  QCheck.Test.make ~count:(Qcheck_long.iters 60)
    ~name:"random reorder+dead-removal preserves behaviour"
    (QCheck.triple arbitrary_spec QCheck.(int_range 0 10_000) arbitrary_pad)
    (fun (sp, seed, pad) ->
      let all = List.init sp.sp_nfields Fun.id in
      let read = read_fields sp in
      let dead = List.filter (fun i -> not (List.mem i read)) all in
      QCheck.assume (read <> []);
      (* a seed-dependent permutation *)
      let order =
        List.sort
          (fun a b -> compare ((a * seed) mod 101) ((b * seed) mod 101))
          read
      in
      oracle_holds (render sp)
        (with_pad "s" pad
           [ H.Rebuild { T.r_typ = "s"; r_order = order; r_dead = dead } ]))

(* the full framework decision, oracle-checked *)
let prop_driver_end_to_end =
  QCheck.Test.make ~count:(Qcheck_long.iters 40)
    ~name:"framework decision passes the oracle" arbitrary_spec
    (fun sp ->
      let src = render sp in
      let compiled = D.compile src in
      let leg, aff = D.analyze compiled ~scheme:W.ISPBO ~feedback:None in
      let plans = H.plans (H.decide compiled leg aff ~scheme:W.ISPBO) in
      oracle_holds src plans)

(* the differential oracle turned on the VM itself: every generated
   program — and its framework-transformed rewrite — must produce
   byte-identical output, step counts, event stream and cache counters
   under the tree-walking and the compiled engine *)
let backends_agree_or_report prog =
  match O.compare_backends ~config:Slo_cachesim.Hierarchy.small prog with
  | [] -> true
  | ms ->
    QCheck.Test.fail_reportf "%s"
      (String.concat "\n" (List.map O.string_of_backend_mismatch ms))

let prop_backends_agree =
  QCheck.Test.make ~count:(Qcheck_long.iters 40)
    ~name:"all backends agree with the walk reference" arbitrary_spec
    (fun sp ->
      let compiled = D.compile (render sp) in
      let leg, aff = D.analyze compiled ~scheme:W.ISPBO ~feedback:None in
      let plans = H.plans (H.decide compiled leg aff ~scheme:W.ISPBO) in
      let transformed = D.transform_with_plans compiled plans in
      backends_agree_or_report compiled
      && backends_agree_or_report transformed)

(* ------------------------------------------------------------------ *)
(* Linked-structure specs: programs over a self-referential struct      *)
(* built as a malloc'd ring of link fields, traversed pointer-chasing   *)
(* style. Clean instances must be shape-poolable and survive the pool   *)
(* rewrite under the oracle; aliased instances must be refuted.         *)
(* ------------------------------------------------------------------ *)

type link_spec = {
  lk_ndata : int;    (* data fields d0 .. d{n-1}, all long *)
  lk_nlinks : int;   (* link fields next0 .. next{k-1} *)
  lk_nelems : int;   (* ring size *)
  lk_walks : (int * int * int) list;
      (* per walk: link followed, data field read, steps *)
  lk_alias : bool;   (* stash &items[2].next0 in a global: not poolable *)
}

let render_link sp : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "struct lnode {\n";
  for i = 0 to sp.lk_ndata - 1 do
    pf "  long d%d;\n" i
  done;
  for j = 0 to sp.lk_nlinks - 1 do
    pf "  struct lnode *next%d;\n" j
  done;
  pf "};\n";
  pf "struct lnode *items;\n";
  if sp.lk_alias then pf "struct lnode **hook;\n";
  pf "long acc;\n";
  pf "int main() {\n  long i; long r;\n  struct lnode *p;\n";
  pf "  items = (struct lnode*)malloc(%d * sizeof(struct lnode));\n"
    sp.lk_nelems;
  pf "  for (i = 0; i < %d; i++) {\n" sp.lk_nelems;
  for i = 0 to sp.lk_ndata - 1 do
    pf "    items[i].d%d = i * %d + %d;\n" i (i + 2) (i + 1)
  done;
  for j = 0 to sp.lk_nlinks - 1 do
    pf "    items[i].next%d = items + ((i + %d) %% %d);\n" j (j + 1)
      sp.lk_nelems
  done;
  pf "  }\n";
  if sp.lk_alias then
    pf "  hook = &items[%d].next0;\n" (min 2 (sp.lk_nelems - 1));
  List.iter
    (fun (link, field, steps) ->
      let link = link mod sp.lk_nlinks and field = field mod sp.lk_ndata in
      pf "  p = items;\n";
      pf "  for (r = 0; r < %d; r++) {\n" steps;
      pf "    acc = acc + p->d%d;\n" field;
      if (link + field) mod 2 = 0 then
        pf "    p->d%d = p->d%d + 1;\n" field field;
      pf "    p = p->next%d;\n" link;
      pf "  }\n")
    sp.lk_walks;
  pf "  printf(\"%%ld\\n\", acc);\n  return 0;\n}\n";
  Buffer.contents buf

let gen_link_spec ~alias : link_spec QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 4 >>= fun lk_ndata ->
  int_range 1 3 >>= fun lk_nlinks ->
  int_range 3 40 >>= fun lk_nelems ->
  int_range 1 4 >>= fun nwalks ->
  list_repeat nwalks
    (triple (int_range 0 2) (int_range 0 3) (int_range 1 120))
  >>= fun lk_walks ->
  return { lk_ndata; lk_nlinks; lk_nelems; lk_walks; lk_alias = alias }

(* shrink toward the smallest failing linked program: fewer walks, then
   a smaller ring, fewer data and link fields, smaller walk triples *)
let shrink_link_spec sp yield =
  QCheck.Shrink.list_spine sp.lk_walks (fun w ->
      if w <> [] then yield { sp with lk_walks = w });
  QCheck.Shrink.int sp.lk_nelems (fun n ->
      if n >= 3 then yield { sp with lk_nelems = n });
  QCheck.Shrink.int sp.lk_ndata (fun n ->
      if n >= 1 then yield { sp with lk_ndata = n });
  QCheck.Shrink.int sp.lk_nlinks (fun n ->
      if n >= 1 then yield { sp with lk_nlinks = n });
  QCheck.Shrink.list_elems
    (QCheck.Shrink.triple QCheck.Shrink.int QCheck.Shrink.int
       QCheck.Shrink.int)
    sp.lk_walks
    (fun w ->
      if List.for_all (fun (_, _, s) -> s >= 1) w then
        yield { sp with lk_walks = w })

let arbitrary_link_spec ~alias =
  QCheck.make (gen_link_spec ~alias) ~print:render_link
    ~shrink:shrink_link_spec

(* a clean linked ring is provably poolable, and the rewrite is sound *)
let prop_random_pool =
  QCheck.Test.make ~count:(Qcheck_long.iters 40)
    ~name:"random linked ring pools and preserves behaviour"
    (arbitrary_link_spec ~alias:false)
    (fun sp ->
      let src = render_link sp in
      let compiled = D.compile src in
      let shp = Shape.analyze compiled in
      match Shape.verdict shp "lnode" with
      | Some v when v.Shape.v_poolable ->
        oracle_holds src
          [ H.Pool { T.po_typ = "lnode"; po_links = v.Shape.v_links } ]
      | Some v ->
        QCheck.Test.fail_reportf
          "clean linked ring judged not poolable: %s"
          (match v.Shape.v_witnesses with
          | w :: _ -> Shape.reason_name w.Shape.sw_reason ^ ": "
                      ^ w.sw_explain
          | [] -> "no witness")
      | None -> QCheck.Test.fail_reportf "lnode has no shape verdict")

(* the aliased twin must be refuted — a pool rewrite behind a live
   interior alias would be unsound *)
let prop_alias_refutes_pool =
  QCheck.Test.make ~count:(Qcheck_long.iters 40)
    ~name:"aliased link cell refutes pooling"
    (arbitrary_link_spec ~alias:true)
    (fun sp ->
      let compiled = D.compile (render_link sp) in
      let shp = Shape.analyze compiled in
      match Shape.verdict shp "lnode" with
      | Some v ->
        (not v.Shape.v_poolable) && v.Shape.v_witnesses <> []
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Mutation canaries: a deliberately injected transform bug must be     *)
(* caught by the oracle                                                 *)
(* ------------------------------------------------------------------ *)

let canary_src =
  "struct s { long a; long b; long c; };\n\
   struct s *tab;\n\
   int main() { long i; long acc = 0;\n\
   tab = (struct s*)malloc(40 * sizeof(struct s));\n\
   for (i = 0; i < 40; i++) { tab[i].a = i; tab[i].b = 7 * i; tab[i].c = 3; }\n\
   for (i = 0; i < 40; i++) { acc = acc + tab[i].a + tab[i].b; }\n\
   printf(\"%ld\\n\", acc); return 0; }"

let canary_plans = [ H.Rebuild { T.r_typ = "s"; r_order = [ 1; 0 ]; r_dead = [ 2 ] } ]

let mutate_transformed mutate =
  let prog = D.compile canary_src in
  let transformed = D.transform_with_plans prog canary_plans in
  mutate transformed;
  O.diff ~original:prog ~transformed ()

let first_instr_matching prog pick =
  let found = ref None in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) -> if !found = None && pick i then found := Some i)
            b.instrs)
        f.fblocks)
    prog.Ir.funcs;
  match !found with
  | Some i -> i
  | None -> Alcotest.fail "canary: expected instruction not found"

let oracle_catches_retargeted_access () =
  (* a mis-rewritten access chain: one field address points at the wrong
     slot; the output changes and the oracle must notice *)
  let rep =
    mutate_transformed (fun tr ->
        let i =
          first_instr_matching tr (fun i ->
              match i.idesc with
              | Ir.Ifieldaddr (_, _, "s", 0) -> true
              | _ -> false)
        in
        match i.idesc with
        | Ir.Ifieldaddr (r, b, s, _) -> i.idesc <- Ir.Ifieldaddr (r, b, s, 1)
        | _ -> assert false)
  in
  Alcotest.(check bool) "oracle rejects" false (O.ok rep)

let oracle_catches_dropped_store () =
  (* a lost store: conservation of per-field access counts must flag it
     even before the output diverges *)
  let rep =
    mutate_transformed (fun tr ->
        List.iter
          (fun (f : Ir.func) ->
            List.iter
              (fun (b : Ir.block) ->
                let dropped = ref false in
                b.instrs <-
                  List.filter
                    (fun (i : Ir.instr) ->
                      match i.idesc with
                      | Ir.Istore (_, _, _, Some _) when not !dropped ->
                        dropped := true;
                        false
                      | _ -> true)
                    b.instrs)
              f.fblocks)
          tr.Ir.funcs)
  in
  Alcotest.(check bool) "oracle rejects" false (O.ok rep)

let oracle_catches_duplicated_load () =
  (* an extra load of a live field whose result is never used: output
     and exit code stay the same, so only the conservation of per-field
     access counts can catch it. Each of [canary_src]'s two loops runs
     [trips] times and touches the field once per iteration, and the
     duplicate sits in the second loop. *)
  let trips = 40 in
  let field = ref None in
  let rep =
    mutate_transformed (fun tr ->
        List.iter
          (fun (f : Ir.func) ->
            List.iter
              (fun (b : Ir.block) ->
                b.instrs <-
                  List.concat_map
                    (fun (i : Ir.instr) ->
                      match i.idesc with
                      | Ir.Iload (_, a, ty, Some acc) when !field = None ->
                        let d = Structs.find tr.Ir.structs acc.astruct in
                        field := Some d.fields.(acc.afield).Structs.name;
                        let dup = Ir.Iload (Ir.fresh_reg f ty, a, ty, Some acc) in
                        [ i; { i with iid = Ir.fresh_iid tr; idesc = dup } ]
                      | _ -> [ i ])
                    b.instrs)
              f.fblocks)
          tr.Ir.funcs)
  in
  let field = Option.get !field in
  match rep.r_failures with
  | [ O.Access_count_differs (n, b, a) ] ->
    Alcotest.(check (triple string int int)) "the duplicated field's counts"
      (field, 2 * trips, 3 * trips) (n, b, a)
  | _ ->
    Alcotest.fail ("expected one Access_count_differs, got: " ^ O.describe rep)

let oracle_catches_dangling_struct () =
  (* a transformation that forgets to retarget a reference to the removed
     struct: the static verifier side of the oracle must reject it *)
  let rep =
    mutate_transformed (fun tr ->
        let i =
          first_instr_matching tr (fun i ->
              match i.idesc with
              | Ir.Ifieldaddr (_, _, "s", _) -> true
              | _ -> false)
        in
        match i.idesc with
        | Ir.Ifieldaddr (r, b, _, fi) ->
          i.idesc <- Ir.Ifieldaddr (r, b, "s__removed", fi)
        | _ -> assert false)
  in
  (match rep.r_failures with
  | [ O.Ill_formed_after _ ] -> ()
  | _ -> Alcotest.fail ("expected Ill_formed_after, got: " ^ O.describe rep));
  Alcotest.(check bool) "oracle rejects" false (O.ok rep)

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest prop_random_split;
          QCheck_alcotest.to_alcotest prop_random_peel;
          QCheck_alcotest.to_alcotest prop_random_rebuild;
          QCheck_alcotest.to_alcotest prop_driver_end_to_end;
          QCheck_alcotest.to_alcotest prop_backends_agree;
        ] );
      ( "linked structures",
        [
          QCheck_alcotest.to_alcotest prop_random_pool;
          QCheck_alcotest.to_alcotest prop_alias_refutes_pool;
        ] );
      ( "mutation canaries",
        [
          Alcotest.test_case "retargeted access caught" `Quick
            oracle_catches_retargeted_access;
          Alcotest.test_case "dropped store caught" `Quick
            oracle_catches_dropped_store;
          Alcotest.test_case "dangling struct caught" `Quick
            oracle_catches_dangling_struct;
          Alcotest.test_case "duplicated load caught" `Quick
            oracle_catches_duplicated_load;
        ] );
    ]
