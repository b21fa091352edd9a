(* The verifier's own test suite.

   Negative direction: compile a small known-good program, then break its
   IR by hand in one specific way per test and require [Verify.program]
   to report the matching structured error (not merely *an* error — a
   verifier that flags everything as "unknown struct" would pass a
   weaker check).

   Positive direction: the verifier must stay silent on every program of
   the benchmark roster, both as lowered and after the driver's chosen
   transformations — [D.evaluate ~verify:true] raises on violations. *)

module D = Slo_core.Driver
module W = Slo_profile.Weights
module Suite = Slo_suite.Suite

let src =
  {|
struct s {
  long a;
  long b;
  double c;
};
struct s *tab;
long acc;

long twice(long x) {
  return x + x;
}

int main() {
  long i;
  tab = (struct s*)malloc(8 * sizeof(struct s));
  for (i = 0; i < 8; i++) {
    tab[i].a = i;
    tab[i].b = i + 1;
    tab[i].c = i * 0.5;
  }
  for (i = 0; i < 8; i++) {
    acc = acc + tab[i].a + twice(tab[i].b);
  }
  printf("%ld\n", acc);
  return 0;
}
|}

let compiled () = D.compile src

let all_instrs (prog : Ir.program) =
  List.concat_map
    (fun (f : Ir.func) ->
      List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.fblocks)
    prog.Ir.funcs

let first_matching prog pred =
  match List.find_opt pred (all_instrs prog) with
  | Some i -> i
  | None -> Alcotest.fail "test setup: no matching instruction in program"

let main_func (prog : Ir.program) =
  List.find (fun (f : Ir.func) -> String.equal f.Ir.fname "main") prog.Ir.funcs

let first_in_main prog pred =
  let f = main_func prog in
  let instrs =
    List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.fblocks
  in
  match List.find_opt pred instrs with
  | Some i -> i
  | None -> Alcotest.fail "test setup: no matching instruction in main"

(* the broken program must report an error matching [pred]; a clean or
   differently-classified report is a failure either way *)
let expect_kind what pred prog =
  let errs = Verify.program prog in
  if not (List.exists (fun (e : Verify.error) -> pred e.Verify.kind) errs)
  then
    Alcotest.failf "expected %s, verifier reported:\n%s" what
      (if errs = [] then "  (nothing)" else Verify.report errs)

let clean_baseline () =
  let prog = compiled () in
  Alcotest.(check bool) "baseline verifies" true (Verify.ok prog);
  Alcotest.(check int) "no errors" 0 (List.length (Verify.program prog))

let removed_struct () =
  let prog = compiled () in
  Structs.remove prog.Ir.structs "s";
  expect_kind "Unknown_struct s"
    (function Verify.Unknown_struct "s" -> true | _ -> false)
    prog

let field_index_out_of_range () =
  let prog = compiled () in
  let i =
    first_matching prog (fun i ->
        match i.Ir.idesc with Ir.Ifieldaddr _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Ifieldaddr (r, b, s, _) -> i.Ir.idesc <- Ir.Ifieldaddr (r, b, s, 99)
  | _ -> assert false);
  expect_kind "Field_out_of_range (s, 99)"
    (function Verify.Field_out_of_range ("s", 99) -> true | _ -> false)
    prog

let dangling_access_tag () =
  let prog = compiled () in
  let i =
    first_matching prog (fun i ->
        match i.Ir.idesc with Ir.Iload (_, _, _, Some _) -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Iload (r, a, t, Some acc) ->
    i.Ir.idesc <- Ir.Iload (r, a, t, Some { acc with Ir.astruct = "ghost" })
  | _ -> assert false);
  expect_kind "Unknown_struct ghost"
    (function Verify.Unknown_struct "ghost" -> true | _ -> false)
    prog

let bad_branch_target () =
  let prog = compiled () in
  let f = main_func prog in
  let b =
    List.find
      (fun (b : Ir.block) ->
        match b.Ir.btermin with Ir.Tbr _ -> true | _ -> false)
      f.Ir.fblocks
  in
  (match b.Ir.btermin with
  | Ir.Tbr (c, t, _) -> b.Ir.btermin <- Ir.Tbr (c, t, 99)
  | _ -> assert false);
  expect_kind "Bad_branch_target 99"
    (function Verify.Bad_branch_target 99 -> true | _ -> false)
    prog

let undefined_register () =
  let prog = compiled () in
  let f = main_func prog in
  (* a register that exists (is below [next_reg]) but no instruction of
     the function ever defines — the shape a mis-rewritten access chain
     leaves behind when a transform drops a fieldaddr *)
  let r = Ir.fresh_reg f (Irty.Ptr Irty.Long) in
  let i =
    first_in_main prog (fun i ->
        match i.Ir.idesc with Ir.Iload _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Iload (d, _, t, a) -> i.Ir.idesc <- Ir.Iload (d, Ir.Oreg r, t, a)
  | _ -> assert false);
  expect_kind "Undefined_register"
    (function Verify.Undefined_register r' -> r' = r | _ -> false)
    prog

let register_out_of_range () =
  let prog = compiled () in
  let f = main_func prog in
  let bogus = f.Ir.next_reg + 50 in
  let i =
    first_in_main prog (fun i ->
        match i.Ir.idesc with Ir.Iload _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Iload (d, _, t, a) -> i.Ir.idesc <- Ir.Iload (d, Ir.Oreg bogus, t, a)
  | _ -> assert false);
  expect_kind "Reg_out_of_range"
    (function Verify.Reg_out_of_range r -> r = bogus | _ -> false)
    prog

let unknown_global () =
  let prog = compiled () in
  let i =
    first_matching prog (fun i ->
        match i.Ir.idesc with Ir.Iaddrglob _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Iaddrglob (r, _) -> i.Ir.idesc <- Ir.Iaddrglob (r, "ghost_global")
  | _ -> assert false);
  expect_kind "Unknown_global ghost_global"
    (function Verify.Unknown_global "ghost_global" -> true | _ -> false)
    prog

let arity_mismatch () =
  let prog = compiled () in
  let i =
    first_matching prog (fun i ->
        match i.Ir.idesc with
        | Ir.Icall (_, Ir.Cdirect "twice", _) -> true
        | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Icall (r, c, args) ->
    i.Ir.idesc <- Ir.Icall (r, c, args @ [ Ir.Oimm 1L ])
  | _ -> assert false);
  expect_kind "Arity_mismatch (twice, 1, 2)"
    (function Verify.Arity_mismatch ("twice", 1, 2) -> true | _ -> false)
    prog

let duplicate_block () =
  let prog = compiled () in
  let f = main_func prog in
  f.Ir.fblocks <- f.Ir.fblocks @ [ List.hd f.Ir.fblocks ];
  expect_kind "Duplicate_block 0"
    (function Verify.Duplicate_block 0 -> true | _ -> false)
    prog

(* the report names the offending instruction or terminator exactly as
   printed, so a site built for the wrong instruction shows here *)
let report_text_instr () =
  let prog = compiled () in
  let f = main_func prog in
  let r = Ir.fresh_reg f (Irty.Ptr Irty.Long) in
  let i =
    first_in_main prog (fun i ->
        match i.Ir.idesc with Ir.Iload _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Iload (d, _, t, a) -> i.Ir.idesc <- Ir.Iload (d, Ir.Oreg r, t, a)
  | _ -> assert false);
  Alcotest.(check string) "report"
    "main.B1: %r5 = load.long %r68: register %r68 is used but never defined"
    (Verify.report (Verify.program prog))

let report_text_term () =
  let prog = compiled () in
  let f = main_func prog in
  let r = Ir.fresh_reg f Irty.Int in
  let b =
    List.find
      (fun (b : Ir.block) ->
        match b.Ir.btermin with Ir.Tbr _ -> true | _ -> false)
      f.Ir.fblocks
  in
  (match b.Ir.btermin with
  | Ir.Tbr (_, t, e) -> b.Ir.btermin <- Ir.Tbr (Ir.Oreg r, t, e)
  | _ -> assert false);
  Alcotest.(check string) "report"
    "main.B1: br %r68, B2, B4: register %r68 is used but never defined"
    (Verify.report (Verify.program prog))

(* a definition whose type disagrees with its register's recorded type
   is reported at the instruction: [report] is the expected text *)
let expect_mistyped prog report =
  expect_kind "Reg_type_mismatch"
    (function Verify.Reg_type_mismatch _ -> true | _ -> false)
    prog;
  Alcotest.(check string) "report" report (Verify.report (Verify.program prog))

(* a double multiplication into a register recorded as long *)
let mistyped_binop () =
  let prog = compiled () in
  let i =
    first_in_main prog (fun i ->
        match i.Ir.idesc with
        | Ir.Ibin (_, _, Irty.Double, _, _) -> true
        | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Ibin (r, _, _, _, _) -> Ir.set_reg_ty (main_func prog) r Irty.Long
  | _ -> assert false);
  expect_mistyped prog
    "main.B2: %r27 = mul.double %r26, 0.5: register %r27 is typed long but \
     defined as double"

(* split's allocation retyped to the hot part, its register not *)
let mistyped_alloc () =
  let prog = compiled () in
  let d = Structs.find prog.Ir.structs "s" in
  Structs.define prog.Ir.structs "s__hot" (Array.to_list d.Structs.fields);
  let i =
    first_in_main prog (fun i ->
        match i.Ir.idesc with Ir.Ialloc _ -> true | _ -> false)
  in
  (match i.Ir.idesc with
  | Ir.Ialloc (r, k, n, _) ->
    i.Ir.idesc <- Ir.Ialloc (r, k, n, Irty.Struct "s__hot")
  | _ -> assert false);
  expect_mistyped prog
    "main.B0: %r0 = malloc 8 x struct s__hot: register %r0 is typed struct s* \
     but defined as struct s__hot*"

(* ------------------------------------------------------------------ *)
(* Positive: silent on the whole roster, before and after transforming *)
(* ------------------------------------------------------------------ *)

let tiny (e : Suite.entry) = List.map (fun a -> max 1 (a / 8)) e.train_args

let suite_clean (e : Suite.entry) () =
  let prog = D.compile e.source in
  (match Verify.program prog with
  | [] -> ()
  | errs -> Alcotest.failf "lowered IR ill-formed:\n%s" (Verify.report errs));
  (* [~verify:true] re-checks the rewritten copy inside the driver and
     raises Verify.Ill_formed on any violation *)
  ignore
    (D.evaluate ~args:(tiny e) ~verify:true ~scheme:W.ISPBO ~feedback:None
       prog)

let suite_tests =
  List.map
    (fun (e : Suite.entry) ->
      Alcotest.test_case e.name `Quick (suite_clean e))
    (Suite.roster @ Suite.case_studies)

let () =
  Alcotest.run "verify"
    [
      ( "broken IR is reported",
        [
          Alcotest.test_case "clean baseline" `Quick clean_baseline;
          Alcotest.test_case "struct removed while referenced" `Quick
            removed_struct;
          Alcotest.test_case "field index out of range" `Quick
            field_index_out_of_range;
          Alcotest.test_case "dangling access tag" `Quick dangling_access_tag;
          Alcotest.test_case "branch to missing block" `Quick bad_branch_target;
          Alcotest.test_case "used register never defined" `Quick
            undefined_register;
          Alcotest.test_case "register out of range" `Quick
            register_out_of_range;
          Alcotest.test_case "unknown global" `Quick unknown_global;
          Alcotest.test_case "call arity mismatch" `Quick arity_mismatch;
          Alcotest.test_case "duplicate block id" `Quick duplicate_block;
          Alcotest.test_case "report text names the instruction" `Quick
            report_text_instr;
          Alcotest.test_case "report text names the terminator" `Quick
            report_text_term;
          Alcotest.test_case "double binop into a long register" `Quick
            mistyped_binop;
          Alcotest.test_case "alloc retyped without its register" `Quick
            mistyped_alloc;
        ] );
      ("suite programs verify clean", suite_tests);
    ]
