(* VM: memory model, interpreter semantics, builtins, hooks.

   Every semantics/builtin/hook test runs under the tree-walking
   reference interpreter and under the compiled engine, so the whole
   suite doubles as a per-feature backend-equivalence check (the
   differential oracle in test_suite/test_fuzz covers whole programs;
   this pins each language feature individually). The compiled engine
   runs twice: once as [Superblock] and once as [Backend.default], the
   engine every pipeline path runs. *)

module Memory = Slo_vm.Memory
module Backend = Slo_vm.Backend
module Edges = Slo_vm.Edges
module Ring = Slo_cachesim.Ring

let run ?args b src = Backend.run_program ?args b (Lower.lower_source src)

let exit_of ?args b src = (run ?args b src).Backend.exit_code
let out_of ?args b src = (run ?args b src).Backend.output

(* ------------------------- memory ------------------------- *)

let mem_roundtrip () =
  let m = Memory.create () in
  let a = Memory.alloc_heap m ~size:64 ~zero:true in
  Memory.store_int m ~addr:a ~size:8 (-123456789);
  Alcotest.(check int) "i64" (-123456789) (Memory.load_int m ~addr:a ~size:8);
  Memory.store_int m ~addr:(a + 8) ~size:1 (-5);
  Alcotest.(check int) "i8 sign extend" (-5)
    (Memory.load_int m ~addr:(a + 8) ~size:1);
  Memory.store_int m ~addr:(a + 10) ~size:2 70000;
  Alcotest.(check int) "i16 truncates" (70000 - 65536)
    (Memory.load_int m ~addr:(a + 10) ~size:2);
  Memory.store_f64 m ~addr:(a + 16) 3.25;
  Alcotest.(check (float 0.0)) "f64" 3.25 (Memory.load_f64 m ~addr:(a + 16));
  Memory.store_f32 m ~addr:(a + 24) 1.5;
  Alcotest.(check (float 0.0)) "f32" 1.5 (Memory.load_f32 m ~addr:(a + 24))

let mem_faults () =
  let m = Memory.create () in
  (match Memory.load_int m ~addr:4 ~size:8 with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "null page access should fault");
  let a = Memory.alloc_heap m ~size:16 ~zero:false in
  Memory.free_heap m a;
  (match Memory.free_heap m a with
  | exception Memory.Fault _ -> ()
  | () -> Alcotest.fail "double free should fault");
  match Memory.free_heap m 0x999999 with
  | exception Memory.Fault _ -> ()
  | () -> Alcotest.fail "bad free should fault"

let mem_strings () =
  let m = Memory.create () in
  let a = Memory.alloc_heap m ~size:32 ~zero:true in
  Memory.write_string m a "hello";
  Alcotest.(check string) "roundtrip" "hello" (Memory.read_string m a)

(* ------------------------- semantics ------------------------- *)

let arith b () =
  Alcotest.(check int) "int arith" 17
    (exit_of b "int main() { return 3 + 4 * 5 - 6 / 2 - 10 % 7; }");
  (* C precedence: << binds tighter than &, & tighter than ^, ^ than | *)
  Alcotest.(check int) "shift/mask" 23
    (exit_of b "int main() { return (1 << 4 | 5 & 7 ^ 2); }");
  Alcotest.(check int) "unary" 1
    (exit_of b "int main() { return -(-1) + !0 + ~0; }");
  Alcotest.(check int) "cmp chain" 1
    (exit_of b "int main() { return (1 < 2) == (3 >= 3); }")

let float_semantics b () =
  Alcotest.(check string) "div and conv" "3.5 3\n"
    (out_of b
       "int main() { double d; int i; d = 7.0 / 2.0; i = (int)d;\n\
        printf(\"%g %d\\n\", d, i); return 0; }");
  Alcotest.(check string) "builtins" "5 2.718 1 8\n"
    (out_of b
       "int main() { printf(\"%g %.3f %g %g\\n\", sqrt(25.0), exp(1.0),\n\
        fabs(-1.0), pow(2.0, 3.0)); return 0; }");
  (* a conditional whose arms mix double and int is a double, whichever
     arm is lowered last *)
  Alcotest.(check string) "mixed conditional" "2.5 1 1 2.5\n"
    (out_of b
       "int main() { int c; int i; double d; c = 1; i = 1; d = 2.5;\n\
        printf(\"%g %g \", c ? d : i, c ? 1 : 2.5); c = 0;\n\
        printf(\"%g %g\\n\", c ? 2.5 : 1, c ? i : d); return 0; }")

(* the printf spec machinery: widths, flags, precision, every supported
   conversion, a trailing '%' and the literal escape *)
let printf_specs b () =
  Alcotest.(check string) "width and flags" "|   42|42   |00042|+42|\n"
    (out_of b
       "int main() { printf(\"|%5d|%-5d|%05d|%+d|\\n\", 42, 42, 42, 42);\n\
        return 0; }");
  Alcotest.(check string) "precision and conversions" "2a*x*ok*3.14*1e+01\n"
    (out_of b
       "int main() { printf(\"%x*%c*%s*%.2f*%.0e\\n\", 42, 120, \"ok\",\n\
        3.14159, 10.0); return 0; }");
  Alcotest.(check string) "long modifier skipped" "7 7\n"
    (out_of b "int main() { printf(\"%ld %lu\\n\", 7, 7); return 0; }");
  Alcotest.(check string) "literal percent" "100% done\n"
    (out_of b "int main() { printf(\"100%% done\\n\"); return 0; }");
  (* a trailing incomplete spec is emitted as the bare '%' *)
  Alcotest.(check string) "trailing percent" "x%"
    (out_of b "int main() { printf(\"x%\"); return 0; }");
  match run b "int main() { printf(\"%q\", 1); return 0; }" with
  | exception Backend.Runtime_error msg ->
    Alcotest.(check bool) "unsupported conversion named" true
      (Astring.String.is_infix ~affix:"%q" msg)
  | _ -> Alcotest.fail "expected runtime error for %q"

let control_flow b () =
  Alcotest.(check int) "fib 10" 55
    (exit_of b
       "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
        int main() { return fib(10); }");
  Alcotest.(check int) "break/continue" 25
    (exit_of b
       "int main() { int i; int s = 0;\n\
        for (i = 0; i < 100; i++) { if (i % 2 == 0) { continue; }\n\
        if (i > 9) { break; } s = s + i; } return s; }");
  Alcotest.(check int) "do-while" 10
    (exit_of b
       "int main() { int i = 0; do { i = i + 2; } while (i < 10); return i; }");
  Alcotest.(check int) "ternary" 7
    (exit_of b "int main() { int a = 3; return a > 2 ? 7 : 9; }")

let pointers_structs b () =
  Alcotest.(check int) "linked list sum" 10
    (exit_of b
       "struct n { int v; struct n *next; };\n\
        int main() { struct n *h; struct n *c; int i; int s; h = (struct n*)0;\n\
        for (i = 1; i <= 4; i++) {\n\
        c = (struct n*)malloc(1 * sizeof(struct n));\n\
        c->v = i; c->next = h; h = c; }\n\
        s = 0; while (h != (struct n*)0) { s = s + h->v; h = h->next; }\n\
        return s; }");
  Alcotest.(check int) "pointer arithmetic" 30
    (exit_of b
       "int main() { int *a; int i; int s; a = (int*)malloc(10 * sizeof(int));\n\
        for (i = 0; i < 10; i++) { a[i] = i; }\n\
        s = *(a + 3) + a[9] * 3; return s; }");
  Alcotest.(check int) "address of local" 42
    (exit_of b
       "int main() { int x; int *p; x = 0; p = &x; *p = 42; return x; }")

let bitfields_vm b () =
  Alcotest.(check string) "bitfield pack/unpack" "5 3 5 3\n"
    (out_of b
       "struct f { int a : 3; int b : 4; };\n\
        struct f *p;\n\
        int main() { p = (struct f*)malloc(2 * sizeof(struct f));\n\
        p[0].a = 5; p[0].b = 3; p[1].a = 5; p[1].b = 3;\n\
        printf(\"%d %d %d %d\\n\", p[0].a, p[0].b, p[1].a, p[1].b);\n\
        return 0; }")

let memops b () =
  Alcotest.(check int) "memset/memcpy" 0
    (exit_of b
       "int main() { char *a; char *b; int i; int bad = 0;\n\
        a = (char*)malloc(64); b = (char*)malloc(64);\n\
        memset(a, 7, 64); memcpy(b, a, 64);\n\
        for (i = 0; i < 64; i++) { if (b[i] != 7) { bad = 1; } }\n\
        return bad; }");
  Alcotest.(check int) "realloc preserves" 15
    (exit_of b
       "int main() { long *a; int i; long s;\n\
        a = (long*)malloc(4 * sizeof(long));\n\
        for (i = 0; i < 4; i++) { a[i] = i; }\n\
        a = (long*)realloc(a, 8 * sizeof(long));\n\
        a[4] = 9; s = 0;\n\
        for (i = 0; i < 5; i++) { s = s + a[i]; } return (int)s; }")

(* the compiled engine's register-direct loads and stores: every access
   kind through every address form, and the fallbacks behind the buffer
   fast path *)

(* accesses past the initial 8 MB buffer: each of the four far accesses
   lies beyond the image the previous one grew (p is the first heap
   block, at 4 MB), so each takes the Memory fallback, which grows the
   image (a load of fresh memory reads 0); the read-backs then take the
   fast path. Values that do not fit in 4 bytes catch a fallback that
   stores short. *)
let buffer_growth b () =
  Alcotest.(check string) "4/8-byte accesses past the buffer grow it"
    "0 0 -1234567 -5 2.5 -7\n"
    (out_of b
       "int main() { long *p; int *q; double *d; long s; int t;\n\
        p = (long*)malloc(8); q = (int*)p; d = (double*)p;\n\
        s = p[1600000];\n\
        p[2200000] = -1234567; d[1700000] = 2.5;\n\
        t = q[8000000];\n\
        q[17000000] = -5; q[17000001] = -7;\n\
        printf(\"%ld %d %ld %d %g %d\\n\", s, t, p[2200000], q[17000000],\n\
        d[1700000], q[17000001]); return 0; }")

(* null-page loads and stores fault with the same message on every
   engine, whichever address form reached them *)
let null_page_faults b () =
  let expect msg src =
    match run b src with
    | exception Backend.Runtime_error m ->
      Alcotest.(check string) "fault message" msg m
    | _ -> Alcotest.failf "expected a fault for %S" src
  in
  expect "memory fault: null-page access at 0x10"
    "int main() { int *p; p = (int*)16; return *p; }";
  expect "memory fault: null-page access at 0x18"
    "int main() { long *p; p = (long*)16; p[1] = 5; return 0; }";
  expect "memory fault: null-page access at 0x8"
    "struct s { long a; double d; };\n\
     int main() { struct s *p; p = (struct s*)0; p->d = 1.5; return 0; }";
  expect "memory fault: null-page access at 0x8"
    "struct s { long a; float f; };\n\
     int main() { struct s *p; p = (struct s*)0; return (int)p->f; }";
  expect "memory fault: null-page access at 0x2"
    "int main() { short *p; p = (short*)0; p[1] = 3; return 0; }";
  expect "memory fault: null-page access at 0x3"
    "int main() { char *p; p = (char*)0; return p[3]; }"

(* every size and kind through a local slot, a global, a struct field
   and an array element: sign extension on narrow loads, truncation on
   narrow stores, f32 rounding *)
let access_kinds b () =
  Alcotest.(check string) "sizes 1/2/4/8, f32, f64"
    "-56 4464 -2 5000000000 1.10000002 1.1000000000000001\n\
     -56 4464 -2 5000000000 1.10000002 1.1000000000000001\n\
     -56 4464 -2 5000000000 1.10000002 1.1000000000000001\n\
     -56 4464 -2 5000000000 1.10000002 1.1000000000000001\n"
    (out_of b
       "struct s { char c; short h; int i; long l; float f; double d; };\n\
        struct s g;\n\
        long big() { long x = 50000; return x * 100000; }\n\
        void show(char c, short h, int i, long l, float f, double d) {\n\
        printf(\"%d %d %d %ld %.9g %.17g\\n\", c, h, i, l, f, d); }\n\
        int main() { char c; short h; int i; long l; float f; double d;\n\
        struct s *p; char *ca; short *ha; int *ia; long *la; float *fa;\n\
        double *da; int k;\n\
        c = 200; h = 70000; i = 4294967294; l = big(); f = 1.1; d = 1.1;\n\
        show(c, h, i, l, f, d);\n\
        g.c = 200; g.h = 70000; g.i = 4294967294; g.l = big();\n\
        g.f = 1.1; g.d = 1.1;\n\
        show(g.c, g.h, g.i, g.l, g.f, g.d);\n\
        p = (struct s*)malloc(sizeof(struct s));\n\
        p->c = 200; p->h = 70000; p->i = 4294967294; p->l = big();\n\
        p->f = 1.1; p->d = 1.1;\n\
        show(p->c, p->h, p->i, p->l, p->f, p->d);\n\
        ca = (char*)malloc(4); ha = (short*)malloc(8); ia = (int*)malloc(16);\n\
        la = (long*)malloc(32); fa = (float*)malloc(16);\n\
        da = (double*)malloc(32); k = 3;\n\
        ca[k] = 200; ha[k] = 70000; ia[k] = 4294967294; la[k] = big();\n\
        fa[k] = 1.1; da[k] = 1.1;\n\
        show(ca[k], ha[k], ia[k], la[k], fa[k], da[k]); return 0; }");
  (* bit-fields read back unsigned: 13 keeps its low 3 bits *)
  Alcotest.(check string) "bit-fields in a global and through a pointer"
    "5 9 5 9\n"
    (out_of b
       "struct f { int a : 3; int b : 5; };\n\
        struct f g; struct f *p;\n\
        int main() { p = (struct f*)malloc(sizeof(struct f));\n\
        g.a = 13; g.b = 9; p->a = 13; p->b = 41;\n\
        printf(\"%d %d %d %d\\n\", g.a, g.b, p->a, p->b); return 0; }")

(* a float compare whose int result feeds the conditional branch,
   NaN included (every ordered compare is false, != is true) *)
let float_branch b () =
  Alcotest.(check string) "float compares into Tbr" "lt le ne nan-ne 1 0\n"
    (out_of b
       "int main() { double x; double y; double n; int c; int d;\n\
        x = 1.5; y = 2.5; n = 0.0 / 0.0;\n\
        if (x < y) { printf(\"lt \"); }\n\
        if (x <= x) { printf(\"le \"); }\n\
        if (x > y) { printf(\"gt \"); }\n\
        if (x != y) { printf(\"ne \"); }\n\
        if (n < 1.0) { printf(\"nan-lt \"); }\n\
        if (n != n) { printf(\"nan-ne \"); }\n\
        c = x < y; d = n >= n; printf(\"%d %d\\n\", c, d); return 0; }")

let indirect_calls b () =
  Alcotest.(check int) "function pointer" 12
    (exit_of b
       "typedef int (*binop)(int, int);\n\
        int add(int a, int b) { return a + b; }\n\
        int mul(int a, int b) { return a * b; }\n\
        int apply(binop f, int a, int b) { return f(a, b); }\n\
        int main() { binop f; f = (&add); return apply(f, 2, 4) + apply((&mul), 2, 3); }")

let deterministic_rand b () =
  let src =
    "int main() { int i; long s = 0; srand(7);\n\
     for (i = 0; i < 5; i++) { s = s + rand() % 100; }\n\
     printf(\"%ld\\n\", s); return 0; }"
  in
  Alcotest.(check string) "same seed, same stream" (out_of b src) (out_of b src)

let args_passing b () =
  Alcotest.(check int) "main args" 7
    (exit_of ~args:[ 3; 4 ] b "int main(int a, int b) { return a + b; }")

let runtime_errors b () =
  let expect_error src =
    match run b src with
    | exception Backend.Runtime_error _ -> ()
    | _ -> Alcotest.failf "expected runtime error for %S" src
  in
  expect_error "int main() { int *p; p = (int*)0; return *p; }";
  expect_error "int main() { return 1 / 0; }";
  (* the step limit catches runaway programs *)
  let vm =
    Backend.create ~max_steps:10_000 b
      (Lower.lower_source "int main() { while (1) { } return 0; }")
  in
  match Backend.run vm with
  | exception Backend.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected step-limit error"

(* a parameter without a stack slot (malformed IR) must be reported as a
   named runtime error, not a bare [Not_found] *)
let missing_param_slot b () =
  let prog =
    Lower.lower_source
      "int f(int x) { return x; } int main() { return f(3); }"
  in
  let f = List.find (fun (f : Ir.func) -> f.fname = "f") prog.Ir.funcs in
  f.Ir.flocals <-
    List.filter (fun (n, _) -> not (String.equal n "x")) f.Ir.flocals;
  match Backend.run_program b prog with
  | exception Backend.Runtime_error msg ->
    Alcotest.(check bool) "names the parameter and function" true
      (Astring.String.is_infix ~affix:"parameter 'x' of function 'f'" msg)
  | _ -> Alcotest.fail "expected runtime error for missing slot"

let step_counting b () =
  let prog = Lower.lower_source "int main() { return 0; }" in
  let r = Backend.run_program b prog in
  Alcotest.(check bool) "counts steps" true (r.Backend.steps > 0 && r.Backend.steps < 10)

(* a ring whose sink records every (addr, meta) event it drains, and
   [take], which returns the events recorded so far in order and forgets
   them *)
let recording_ring ?cap () =
  let ring = Ring.create ?cap () in
  let seen = ref [] in
  Ring.set_sink ring (fun r ->
      for i = 0 to r.Ring.len - 1 do
        seen := (r.Ring.addrs.(i), r.Ring.metas.(i)) :: !seen
      done);
  let take () =
    let evs = List.rev !seen in
    seen := [];
    evs
  in
  (ring, take)

let ring_events b prog =
  let ring, take = recording_ring () in
  ignore (Backend.run (Backend.create ~ring b prog));
  take ()

let count p evs = List.length (List.filter p evs)

let ring_sees_accesses b () =
  let prog =
    Lower.lower_source
      "struct s { double d; int i; };\n\
       struct s *p;\n\
       int main() { p = (struct s*)malloc(2 * sizeof(struct s));\n\
       p[0].d = 1.5; p[0].i = 2; return p[0].i; }"
  in
  let evs = ring_events b prog in
  Alcotest.(check int) "one float store" 1
    (count (fun (_, m) -> Ring.meta_float m && Ring.meta_write m) evs);
  Alcotest.(check bool) "int field traffic seen" true
    (count (fun (_, m) -> (not (Ring.meta_float m)) && Ring.meta_size m = 4) evs
     >= 2)

(* memset/memcpy lengths are runtime values; both engines send them out
   as 8-byte chunks carrying the instruction's iid, a memcpy's source
   reads before its destination writes *)
let memops_chunked b () =
  let prog =
    Lower.lower_source
      "char *p; char *q;\n\
       int main() { p = (char*)malloc(32); q = (char*)malloc(32);\n\
       memset(p, 7, 20); memcpy(q, p, 12); return q[11]; }"
  in
  let iid_of pick =
    let found = ref [] in
    List.iter
      (fun (f : Ir.func) ->
        List.iter
          (fun (bl : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) -> if pick i.idesc then found := i.iid :: !found)
              bl.instrs)
          f.fblocks)
      prog.Ir.funcs;
    match !found with
    | [ iid ] -> iid
    | _ -> Alcotest.fail "expected exactly one matching instruction"
  in
  let set = iid_of (function Ir.Imemset _ -> true | _ -> false) in
  let cpy = iid_of (function Ir.Imemcpy _ -> true | _ -> false) in
  let evs = ring_events b prog in
  let of_iid iid =
    List.filter_map
      (fun (a, m) ->
        if Ring.meta_iid m = iid then
          Some (a, Ring.meta_size m, Ring.meta_write m, Ring.meta_float m)
        else None)
      evs
  in
  let ev = Alcotest.(list (pair int (triple int bool bool))) in
  let shape = List.map (fun (a, s, w, f) -> (a, (s, w, f))) in
  let memset = of_iid set in
  let p = match memset with (a, _, _, _) :: _ -> a | [] -> -1 in
  Alcotest.check ev "memset: 8, 8, 4-byte writes at p, p+8, p+16"
    [ (p, (8, true, false)); (p + 8, (8, true, false));
      (p + 16, (4, true, false)) ]
    (shape memset);
  let memcpy = of_iid cpy in
  let q = match List.rev memcpy with _ :: (a, _, _, _) :: _ -> a | _ -> -1 in
  Alcotest.check ev "memcpy: source reads, then destination writes"
    [ (p, (8, false, false)); (p + 8, (4, false, false));
      (q, (8, true, false)); (q + 8, (4, true, false)) ]
    (shape memcpy);
  Alcotest.(check bool) "distinct blocks" true (p <> q)

(* [k] tagged stores into a fresh heap block, then a null-page fault
   that sends out no event of its own (printf reading a string at
   address 0): the run's whole event stream is exactly the [k] stores *)
let stores_then_fault k =
  let prog =
    Lower.lower_source "struct s { long a; };\nint main() { return 0; }"
  in
  let main = Option.get (Ir.find_func prog "main") in
  let instr idesc = { Ir.iid = Ir.fresh_iid prog; iloc = main.floc; idesc } in
  let base = Ir.fresh_reg main and fmt = Ir.fresh_reg main in
  let store j =
    let r = Ir.fresh_reg main and j = Int64.of_int j in
    [ instr (Ir.Iptradd (r, Ir.Oreg base, Ir.Oimm j, Irty.Struct "s"));
      instr
        (Ir.Istore
           (Ir.Oreg r, Ir.Oimm j, Irty.Long,
            Some { Ir.astruct = "s"; afield = 0 })) ]
  in
  let entry = List.hd main.fblocks in
  entry.instrs <-
    instr (Ir.Ialloc (base, Ir.Amalloc, Ir.Oimm (Int64.of_int k), Irty.Struct "s"))
    :: List.concat_map store (List.init k Fun.id)
    @ [ instr (Ir.Iaddrstr (fmt, "%s"));
        instr (Ir.Icall (None, Ir.Cbuiltin "printf", [ Ir.Oreg fmt; Ir.Oimm 0L ]))
      ];
  main.fblocks <- [ entry ];
  prog

(* the ring lifecycle every engine shares: a run that faults still
   flushes its tail, and the next run of the same vm first drops a stale
   tail (here pushed by hand, as a failed drain would leave it) *)
let ring_lifecycle b () =
  let k = 10 in
  let ring, take = recording_ring ~cap:4 () in
  let vm = Backend.create ~ring b (stores_then_fault k) in
  let run_faults () =
    match Backend.run vm with
    | exception Backend.Runtime_error m ->
      Alcotest.(check string) "fault" "memory fault: null-page access at 0x0" m
    | _ -> Alcotest.fail "expected a null-page fault"
  in
  run_faults ();
  let first = take () in
  Alcotest.(check int) "every store drained, the tail included" k
    (List.length first);
  Alcotest.(check int) "all of them 8-byte writes" k
    (count (fun (_, m) -> Ring.meta_write m && Ring.meta_size m = 8) first);
  Ring.push ring 0xdead (Ring.meta ~size:8 ~write:true ~is_float:false ~iid:0);
  run_faults ();
  (* the heap persists across runs of a vm, so the rerun's stores land
     in a new block: compare the meta words *)
  Alcotest.(check (list int)) "a rerun drains only its own events"
    (List.map snd first) (List.map snd (take ()))

(* the compiled edge counters: every backend counts the same taken
   edges, slot for slot — superblock fusion included, whose chains count
   the interior jumps they no longer take *)
let edge_counters b () =
  let prog =
    Lower.lower_source
      "int main() { int i; int s = 0;\n\
       for (i = 0; i < 10; i++) { s = s + i; } return s; }"
  in
  let run b =
    let edges = Edges.create prog in
    let r = Backend.run (Backend.create ~edges b prog) in
    (r, Option.get (Edges.row edges "main"))
  in
  let r, row = run b in
  Alcotest.(check int) "result" 45 r.Backend.exit_code;
  let entries = ref 0 and taken = ref 0 in
  Array.iteri
    (fun i n -> if i < row.Edges.nblocks then entries := !entries + n
      else taken := !taken + n)
    row.Edges.counts;
  Alcotest.(check int) "one entry" 1 !entries;
  (* loop executes 10 times: header->body 10, body->step 10, step->header 10,
     header->exit 1, entry->header 1 => 32 *)
  Alcotest.(check int) "taken edges" 32 !taken;
  let _, walk = run Backend.Walk in
  Alcotest.(check (array int)) "the walker's counts" walk.Edges.counts
    row.Edges.counts

(* ------------------------- suites ------------------------- *)

let semantics_cases b =
  [
    Alcotest.test_case "arith" `Quick (arith b);
    Alcotest.test_case "floats" `Quick (float_semantics b);
    Alcotest.test_case "printf specs" `Quick (printf_specs b);
    Alcotest.test_case "control flow" `Quick (control_flow b);
    Alcotest.test_case "pointers+structs" `Quick (pointers_structs b);
    Alcotest.test_case "bitfields" `Quick (bitfields_vm b);
    Alcotest.test_case "memops" `Quick (memops b);
    Alcotest.test_case "indirect calls" `Quick (indirect_calls b);
    Alcotest.test_case "deterministic rand" `Quick (deterministic_rand b);
    Alcotest.test_case "args" `Quick (args_passing b);
    Alcotest.test_case "runtime errors" `Quick (runtime_errors b);
    Alcotest.test_case "missing param slot" `Quick (missing_param_slot b);
    Alcotest.test_case "buffer growth" `Quick (buffer_growth b);
    Alcotest.test_case "null-page faults" `Quick (null_page_faults b);
    Alcotest.test_case "access kinds" `Quick (access_kinds b);
    Alcotest.test_case "float branch" `Quick (float_branch b);
  ]

let hooks_cases b =
  [
    Alcotest.test_case "step counting" `Quick (step_counting b);
    Alcotest.test_case "ring events" `Quick (ring_sees_accesses b);
    Alcotest.test_case "memset/memcpy chunks" `Quick (memops_chunked b);
    Alcotest.test_case "ring lifecycle" `Quick (ring_lifecycle b);
    Alcotest.test_case "edge counters" `Quick (edge_counters b);
  ]

(* the engine every pipeline path runs, under the suite name it had
   when clients could still spell it "closure" *)
let pipeline_engine = Backend.default

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick mem_roundtrip;
          Alcotest.test_case "faults" `Quick mem_faults;
          Alcotest.test_case "strings" `Quick mem_strings;
        ] );
      ("semantics[walk]", semantics_cases Backend.Walk);
      ("semantics[closure]", semantics_cases pipeline_engine);
      ("semantics[superblock]", semantics_cases Backend.Superblock);
      ("hooks[walk]", hooks_cases Backend.Walk);
      ("hooks[closure]", hooks_cases pipeline_engine);
      ("hooks[superblock]", hooks_cases Backend.Superblock);
    ]
