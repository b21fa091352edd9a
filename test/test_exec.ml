(* The domain pool and the parallel evaluation engine.

   The load-bearing properties: results come back in submission order
   (so bench tables are byte-identical for any --jobs), a crashed job
   becomes a structured error instead of hanging the queue or killing
   the run, and the engine produces the same tables and JSON rows
   (modulo timings) at --jobs 1 and --jobs 4. *)

module Pool = Slo_exec.Pool
module Engine = Slo_bench.Engine
module Json = Slo_util.Json

(* ---------------- pool ---------------- *)

let pool_ordered () =
  let xs = List.init 20 (fun i -> i) in
  let p = Pool.create ~jobs:4 in
  let futs = List.map (fun x -> Pool.submit p (fun () -> x * x)) xs in
  let rs = List.map Pool.await futs in
  Pool.shutdown p;
  let expect = List.map (fun x -> Ok (x * x)) xs in
  Alcotest.(check bool) "squares in submission order" true (rs = expect)

let pool_error_isolated () =
  let p = Pool.create ~jobs:2 in
  let f1 = Pool.submit p (fun () -> 1) in
  let f2 = Pool.submit p (fun () -> failwith "boom") in
  (* submitted after the failing job: the worker must survive it *)
  let f3 = Pool.submit p (fun () -> 3) in
  Alcotest.(check bool) "ok before" true (Pool.await f1 = Ok 1);
  (match Pool.await f2 with
  | Error e ->
    Alcotest.(check bool) "error names the exception" true
      (Astring.String.is_infix ~affix:"boom" e.Pool.err_exn)
  | Ok _ -> Alcotest.fail "failing job returned Ok");
  Alcotest.(check bool) "ok after crash" true (Pool.await f3 = Ok 3);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let pool_lifecycle () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Pool.create: jobs must be between 1 and 256") (fun () ->
      ignore (Pool.create ~jobs:0));
  let p = Pool.create ~jobs:1 in
  Alcotest.(check int) "jobs accessor" 1 (Pool.jobs p);
  let f = Pool.submit p (fun () -> "x") in
  Alcotest.(check bool) "await twice" true
    (Pool.await f = Ok "x" && Pool.await f = Ok "x");
  Pool.shutdown p;
  (match Pool.submit p (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown accepted");
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1)

(* ---------------- domain budget ---------------- *)

module Cores = Slo_exec.Cores

let in_budget () =
  let f = Cores.free () in
  f >= 0 && f <= Cores.total - 1

(* four domains take and give back spares as fast as they can, through
   both spawns and a claim, while every domain involved checks the
   count: it never leaves [0, total - 1] and ends where it started *)
let cores_concurrent_bounds () =
  let free0 = Cores.free () in
  let ok = Atomic.make true in
  let check () = if not (in_budget ()) then Atomic.set ok false in
  let churn () =
    for i = 1 to 60 do
      check ();
      (match i mod 3 with
      | 0 -> Cores.join (Cores.spawn check)
      | 1 -> Option.iter Cores.join (Cores.try_spawn check)
      | _ ->
        Cores.claim ();
        check ();
        Cores.release ());
      check ()
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn churn) in
  for _ = 1 to 1000 do
    check ()
  done;
  List.iter Domain.join ds;
  Alcotest.(check bool) "free stayed in [0, total - 1]" true (Atomic.get ok);
  Alcotest.(check int) "every spare given back" free0 (Cores.free ())

(* a domain that raises still gives its spare back on join *)
let cores_join_raises () =
  let free0 = Cores.free () in
  let d = Cores.spawn (fun () -> failwith "boom") in
  Alcotest.check_raises "join re-raises" (Failure "boom") (fun () ->
      Cores.join d);
  Alcotest.(check int) "spare given back" free0 (Cores.free ())

(* a claim made while no spare is free is paid by the next one given
   back, before a try_spawn can take it *)
let cores_claim_first () =
  let free0 = Cores.free () in
  let d = Cores.spawn (fun () -> ()) in
  for _ = 1 to free0 do
    Cores.claim ()
  done;
  Alcotest.(check int) "all spares held or owed" 0 (Cores.free ());
  Cores.join d;
  Alcotest.(check bool) "the owed claim took the spare back" true
    (Cores.try_spawn (fun () -> ()) = None);
  for _ = 1 to free0 do
    Cores.release ()
  done;
  Alcotest.(check int) "every claim released" free0 (Cores.free ())

(* k busy workers hold k - 1 spares, an idle pool none, and shutdown
   leaves the budget where it was, also after a job raised *)
let pool_returns_reservation () =
  let free0 = Cores.free () in
  let p = Pool.create ~jobs:2 in
  Alcotest.(check int) "idle workers hold nothing" free0 (Cores.free ());
  let started = Atomic.make 0 and go = Atomic.make false in
  let job fail () =
    Atomic.incr started;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    if fail then failwith "bang"
  in
  let a = Pool.submit p (job false) and b = Pool.submit p (job true) in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "two busy workers hold one spare" (max 0 (free0 - 1))
    (Cores.free ());
  Atomic.set go true;
  Alcotest.(check bool) "job ran" true (Pool.await a = Ok ());
  Alcotest.(check bool) "job raised" true (Result.is_error (Pool.await b));
  Pool.shutdown p;
  Alcotest.(check int) "shutdown returned the reservation" free0
    (Cores.free ())

(* ---------------- engine ---------------- *)

(* A tiny hot/cold benchmark in the shape of Figure 1, small enough that
   a full evaluate (profile + before/after measurement) is fast. *)
let mini_src ?(n = 512) name =
  Printf.sprintf
    "struct %s { long hot1; double cold1; long hot2; double cold2; };\n\
     struct %s *arr;\n\
     long n;\n\
     long use_hot() { long i; long s = 0;\n\
     for (i = 0; i < n; i++) { s = s + arr[i].hot1 + arr[i].hot2; }\n\
     return s; }\n\
     double use_cold() { long i; double s = 0.0;\n\
     for (i = 0; i < n; i = i + 64) { s = s + arr[i].cold1 + arr[i].cold2; }\n\
     return s; }\n\
     int main() { long it; long s = 0; double c = 0.0; n = %d;\n\
     arr = (struct %s*)malloc(n * sizeof(struct %s));\n\
     for (it = 0; it < n; it++) { arr[it].hot1 = it; arr[it].hot2 = 2*it;\n\
     arr[it].cold1 = it * 0.5; arr[it].cold2 = it * 0.25; }\n\
     for (it = 0; it < 20; it++) { s = s + use_hot();\n\
     if (it %% 5 == 0) { c = c + use_cold(); } }\n\
     printf(\"%%ld %%g\\n\", s, c); return 0; }\n"
    name name n name name

let mk_entry name : Slo_suite.Suite.entry =
  {
    name;
    source = mini_src (String.map (fun c -> if c = '-' then '_' else c) name);
    train_args = [];
    ref_args = [];
    paper = None;
  }

let mini_roster = List.map mk_entry [ "mini-a"; "mini-b"; "mini-c" ]

let run_tables ~jobs roster =
  let run = Engine.create_run ~jobs () in
  let t1 = Engine.table1 run ~roster in
  let t3 = Engine.table3 run ~roster in
  let recs = Engine.records run in
  Engine.finish run;
  (t1, t3, recs)

let strip_timings recs =
  List.map
    (fun r -> Json.to_string (Engine.json_of_record ~with_timings:false r))
    recs

(* the table3 throughput summary is wall-clock-derived; drop it before
   comparing renders for determinism *)
let strip_throughput t3 =
  String.concat "\n"
    (List.filter
       (fun l -> not (Astring.String.is_prefix ~affix:"measure:" l))
       (String.split_on_char '\n' t3))

let engine_jobs_equivalence () =
  let t1a, t3a, ra = run_tables ~jobs:1 mini_roster in
  let t1b, t3b, rb = run_tables ~jobs:4 mini_roster in
  Alcotest.(check string) "table1 identical across --jobs" t1a t1b;
  Alcotest.(check string) "table3 identical across --jobs"
    (strip_throughput t3a) (strip_throughput t3b);
  Alcotest.(check (list string)) "JSON rows identical modulo timings"
    (strip_timings ra) (strip_timings rb);
  Alcotest.(check bool) "rows for every unit" true
    (List.length ra = 2 * List.length mini_roster)

let engine_crash_is_error_row () =
  let broken =
    { (mk_entry "mini-broken") with source = "int main() { return 0 }" }
  in
  let roster = [ List.hd mini_roster; broken ] in
  let run = Engine.create_run ~jobs:2 () in
  let t3 = Engine.table3 run ~roster in
  let recs = Engine.records run in
  Engine.finish run;
  Alcotest.(check bool) "run completed with an error row" true
    (Astring.String.is_infix ~affix:"ERROR" t3);
  let errs = List.filter (fun r -> r.Engine.r_error <> None) recs in
  Alcotest.(check int) "exactly the broken entry errored" 1 (List.length errs);
  Alcotest.(check bool) "error row names the benchmark" true
    (List.for_all (fun r -> r.Engine.r_benchmark = "mini-broken") errs);
  Alcotest.(check bool) "good entry still measured" true
    (List.exists
       (fun r ->
         r.Engine.r_benchmark = "mini-a" && r.Engine.r_measured <> None)
       recs)

(* the memo keys a compile and a profile by the source bytes, not the
   entry name: a second entry under a used name gets its own program and
   profile, and its rows are those of its source under a fresh name *)
let engine_keyed_by_source () =
  let src = mini_src ~n:256 "mini_reused" in
  let table3 roster =
    let run = Engine.create_run ~jobs:2 () in
    let (_ : string) = Engine.table3 run ~roster in
    let recs = Engine.records run in
    Engine.finish run;
    strip_timings
      (List.map (fun r -> { r with Engine.r_benchmark = "?" }) recs)
  in
  let first = table3 [ mk_entry "mini-reused" ] in
  let reused = table3 [ { (mk_entry "mini-reused") with source = src } ] in
  let fresh = table3 [ { (mk_entry "mini-fresh") with source = src } ] in
  Alcotest.(check bool) "the two sources measure differently" false
    (first = fresh);
  Alcotest.(check (list string)) "reused name, rows of its own source" fresh
    reused

(* four domains ask for one train profile at once: one collects it, the
   other three wait and get the same feedback at no collection time *)
let engine_profile_single_flight () =
  let e = mk_entry "mini-flight" in
  let started = Atomic.make 0 in
  let ask () =
    Atomic.incr started;
    while Atomic.get started < 4 do
      Domain.cpu_relax ()
    done;
    Engine.profile e
  in
  let results =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn ask))
  in
  Alcotest.(check int) "one call collected" 1
    (List.length (List.filter (fun (_, ms) -> ms > 0.0) results));
  let fbs =
    List.map (fun (fb, _) -> Slo_profile.Feedback.to_string fb) results
  in
  Alcotest.(check bool) "equal feedback" true
    (List.for_all (String.equal (List.hd fbs)) fbs)

let engine_json_artifact () =
  let run = Engine.create_run ~jobs:2 () in
  let (_ : string) = Engine.table3 run ~roster:[ List.hd mini_roster ] in
  let path = Filename.temp_file "slo_bench" ".json" in
  Engine.write_json run ~path;
  Engine.finish run;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let j = Json.of_string s in
  Alcotest.(check bool) "schema_version = 3" true
    (Json.member "schema_version" j = Some (Json.Int 3));
  Alcotest.(check bool) "fidelity recorded" true
    (Json.member "fidelity" j = Some (Json.String "exact"));
  Alcotest.(check bool) "backend recorded" true
    (Json.member "backend" j
    = Some (Json.String Slo_vm.Backend.(to_string default)));
  Alcotest.(check bool) "jobs recorded" true
    (Json.member "jobs" j = Some (Json.Int 2));
  (match Json.member "results" j with
  | Some (Json.List [ row ]) ->
    Alcotest.(check bool) "row names the benchmark" true
      (Json.member "benchmark" row = Some (Json.String "mini-a"))
  | _ -> Alcotest.fail "expected a one-row results list")

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick pool_ordered;
          Alcotest.test_case "crash isolated" `Quick pool_error_isolated;
          Alcotest.test_case "lifecycle" `Quick pool_lifecycle;
        ] );
      ( "cores",
        [
          Alcotest.test_case "concurrent bounds" `Quick
            cores_concurrent_bounds;
          Alcotest.test_case "join raises" `Quick cores_join_raises;
          Alcotest.test_case "claim first" `Quick cores_claim_first;
          Alcotest.test_case "pool returns reservation" `Quick
            pool_returns_reservation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs equivalence" `Quick engine_jobs_equivalence;
          Alcotest.test_case "crash is error row" `Quick
            engine_crash_is_error_row;
          Alcotest.test_case "json artifact" `Quick engine_json_artifact;
          Alcotest.test_case "keyed by source" `Quick engine_keyed_by_source;
          Alcotest.test_case "profile single flight" `Quick
            engine_profile_single_flight;
        ] );
    ]
