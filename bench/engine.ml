module D = Slo_core.Driver
module L = Slo_core.Legality
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
module Collect = Slo_profile.Collect
module Feedback = Slo_profile.Feedback
module Suite = Slo_suite.Suite
module Table = Slo_util.Table
module Json = Slo_util.Json
module Pool = Slo_exec.Pool
module Backend = Slo_vm.Backend
module Sampled = Slo_cachesim.Sampled

type timings = {
  t_compile_ms : float;
  t_profile_ms : float;
  t_analyze_ms : float;
  t_transform_ms : float;
  t_measure_ms : float;
}

let no_timings =
  { t_compile_ms = 0.0; t_profile_ms = 0.0; t_analyze_ms = 0.0;
    t_transform_ms = 0.0; t_measure_ms = 0.0 }

type record = {
  r_experiment : string;
  r_benchmark : string;
  r_scheme : string option;
  r_error : string option;
  r_cycles : (int * int) option;
  r_steps : (int * int) option;
  r_l1_misses : (int * int) option;
  r_l2_misses : (int * int) option;
  r_accesses : (int * int) option;
  r_speedup_pct : float option;
  r_timings : timings;
}

let timed = Slo_util.Clock.timed

(* ------------------------------------------------------------------ *)
(* Shared caches. The compile cache is hoisted out of the workers:     *)
(* [precompile] fills it serially up front and workers only read it;   *)
(* on-demand fills (test rosters) serialize on the mutex. The profile  *)
(* memo uses one lock per entry so distinct entries collect in         *)
(* parallel while a duplicate request blocks instead of recollecting.  *)
(* ------------------------------------------------------------------ *)

let compile_mutex = Mutex.create ()

let compile_cache : (string, (Ir.program * float, exn) result) Hashtbl.t =
  Hashtbl.create 16

let compile_uncached (e : Suite.entry) =
  match timed (fun () -> D.compile ~verify:true e.source) with
  | p, ms -> Ok (p, ms)
  | exception exn -> Error exn

let compile (e : Suite.entry) =
  Mutex.lock compile_mutex;
  let res =
    match Hashtbl.find_opt compile_cache e.name with
    | Some r -> r
    | None ->
      let r = compile_uncached e in
      Hashtbl.replace compile_cache e.name r;
      r
  in
  Mutex.unlock compile_mutex;
  match res with Ok pm -> pm | Error exn -> raise exn

let precompile entries = List.iter (fun e -> try ignore (compile e) with _ -> ()) entries

type fb_slot = {
  sl_mutex : Mutex.t;
  mutable sl_fb : Feedback.t option;
}

let fb_mutex = Mutex.create ()
let fb_slots : (string, fb_slot) Hashtbl.t = Hashtbl.create 16

let train_profile (e : Suite.entry) (prog : Ir.program) =
  let slot =
    Mutex.lock fb_mutex;
    let s =
      match Hashtbl.find_opt fb_slots e.name with
      | Some s -> s
      | None ->
        let s = { sl_mutex = Mutex.create (); sl_fb = None } in
        Hashtbl.replace fb_slots e.name s;
        s
    in
    Mutex.unlock fb_mutex;
    s
  in
  Mutex.lock slot.sl_mutex;
  let result =
    match slot.sl_fb with
    | Some fb -> Ok (fb, 0.0)
    | None -> (
      match timed (fun () -> fst (Collect.collect ~args:e.train_args prog)) with
      | fb, ms ->
        slot.sl_fb <- Some fb;
        Ok (fb, ms)
      | exception exn -> Error exn)
  in
  Mutex.unlock slot.sl_mutex;
  match result with Ok r -> r | Error exn -> raise exn

let reset_caches () =
  Mutex.lock compile_mutex;
  Hashtbl.reset compile_cache;
  Mutex.unlock compile_mutex;
  Mutex.lock fb_mutex;
  Hashtbl.reset fb_slots;
  Mutex.unlock fb_mutex

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  pool : Pool.t;
  run_backend : Backend.t;
  run_fidelity : Sampled.fidelity;
  mutable recs : record list; (* reversed *)
  t_start : int64; (* monotonic, Slo_util.Clock *)
}

let create_run ?(backend = Backend.default) ?(fidelity = Sampled.Exact) ~jobs
    () =
  { pool = Pool.create ~jobs; run_backend = backend; run_fidelity = fidelity;
    recs = []; t_start = Slo_util.Clock.now_ns () }

let jobs run = Pool.jobs run.pool
let records run = List.rev run.recs
let push_record run r = run.recs <- r :: run.recs
let finish run = Pool.shutdown run.pool

let progress fmt = Printf.printf (fmt ^^ "\n%!")

let short_error msg =
  let msg = String.map (fun c -> if c = '\n' then ' ' else c) msg in
  if String.length msg <= 48 then msg else String.sub msg 0 45 ^ "..."

(* ------------------------------------------------------------------ *)
(* Table 1: types and transformable types (analysis-only rows)         *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_total : int;
  t1_legal : int;
  t1_ptsto : int;
  t1_relax : int;
  t1_compile_ms : float;
  t1_analyze_ms : float;
}

let t1_job (e : Suite.entry) () =
  let prog, t_compile = compile e in
  let (leg, pts), t_analyze =
    timed (fun () ->
        (L.analyze prog, Slo_pointsto.Pointsto.analyze prog))
  in
  let types = L.types leg in
  let ptsto =
    List.length
      (List.filter
         (fun s ->
           L.is_legal leg s
           || (L.is_legal ~relax:true leg s
              && Slo_pointsto.Pointsto.refutable pts s))
         types)
  in
  {
    t1_total = List.length types;
    t1_legal = L.legal_count leg;
    t1_ptsto = ptsto;
    t1_relax = L.legal_count ~relax:true leg;
    t1_compile_ms = t_compile;
    t1_analyze_ms = t_analyze;
  }

let table1 run ~roster =
  let t =
    Table.create
      [ ("Benchmark", Table.Left); ("Types", Table.Right);
        ("Legal", Table.Right); ("%", Table.Right);
        ("PtsTo", Table.Right); ("%", Table.Right);
        ("Relax", Table.Right); ("%", Table.Right);
        ("paper L%", Table.Right); ("paper R%", Table.Right) ]
  in
  (* hoist compilation out of the workers: fill the cache serially here
     so jobs only read it (a failed compile resurfaces inside the job) *)
  precompile roster;
  let futures =
    List.map (fun e -> (e, Pool.submit run.pool (t1_job e))) roster
  in
  let errors = ref [] in
  let sum_l = ref 0.0 and sum_p = ref 0.0 and sum_r = ref 0.0 in
  let n = ref 0 in
  List.iter
    (fun ((e : Suite.entry), fut) ->
      let paper_l, paper_r =
        match e.paper with
        | Some p -> (Table.fpct p.p_legal_pct, Table.fpct p.p_relax_pct)
        | None -> ("-", "-")
      in
      match Pool.await fut with
      | Ok row ->
        let pct x = 100.0 *. float_of_int x /. float_of_int row.t1_total in
        sum_l := !sum_l +. pct row.t1_legal;
        sum_p := !sum_p +. pct row.t1_ptsto;
        sum_r := !sum_r +. pct row.t1_relax;
        incr n;
        Table.add_row t
          [ e.name; string_of_int row.t1_total; string_of_int row.t1_legal;
            Table.fpct (pct row.t1_legal); string_of_int row.t1_ptsto;
            Table.fpct (pct row.t1_ptsto); string_of_int row.t1_relax;
            Table.fpct (pct row.t1_relax); paper_l; paper_r ];
        push_record run
          {
            r_experiment = "table1"; r_benchmark = e.name; r_scheme = None;
            r_error = None; r_cycles = None; r_steps = None;
            r_l1_misses = None;
            r_l2_misses = None; r_accesses = None; r_speedup_pct = None;
            r_timings =
              { no_timings with t_compile_ms = row.t1_compile_ms;
                t_analyze_ms = row.t1_analyze_ms };
          }
      | Error (err : Pool.error) ->
        errors := (e.name, err.err_exn) :: !errors;
        Table.add_row t
          [ e.name; "ERROR"; "-"; "-"; "-"; "-"; "-"; "-"; paper_l; paper_r ];
        push_record run
          {
            r_experiment = "table1"; r_benchmark = e.name; r_scheme = None;
            r_error = Some err.err_exn; r_cycles = None; r_steps = None;
            r_l1_misses = None;
            r_l2_misses = None; r_accesses = None; r_speedup_pct = None;
            r_timings = no_timings;
          })
    futures;
  Table.add_sep t;
  let avg x = if !n = 0 then 0.0 else !x /. float_of_int !n in
  Table.add_row t
    [ "Average:"; ""; ""; Table.fpct (avg sum_l); "";
      Table.fpct (avg sum_p); ""; Table.fpct (avg sum_r);
      Table.fpct Suite.paper_avg_legal_pct;
      Table.fpct Suite.paper_avg_relax_pct ];
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render t);
  List.iter
    (fun (name, msg) ->
      Buffer.add_string buf
        (Printf.sprintf "!! %s failed: %s\n" name msg))
    (List.rev !errors);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 3: transformed types and performance impact (full pipeline)   *)
(* ------------------------------------------------------------------ *)

type t3_row = {
  t3_total : int;
  t3_transformed : int;
  t3_split_dead : int;
  t3_speedup_pct : float;
  t3_cycles : int * int;
  t3_steps : int * int;
  t3_l1 : int * int;
  t3_l2 : int * int;
  t3_accesses : int * int;
  t3_mismatch : bool;
  t3_timings : timings;
}

let t3_job ~backend ~fidelity (e : Suite.entry) scheme () =
  let prog, t_compile = compile e in
  let feedback, t_profile =
    if W.needs_profile scheme then begin
      let fb, ms = train_profile e prog in
      (Some fb, ms)
    end
    else (None, 0.0)
  in
  let ev =
    D.evaluate ~args:e.ref_args ~verify:true ~backend ~fidelity ~scheme
      ~feedback prog
  in
  let plans = H.plans ev.e_decisions in
  let split_dead =
    List.fold_left
      (fun acc -> function
        | H.Split s -> acc + List.length s.s_cold + List.length s.s_dead
        | H.Peel p -> acc + List.length p.p_dead
        | H.Rebuild r -> acc + List.length r.r_dead
        | H.Pool _ | H.Pad _ -> acc)
      0 plans
  in
  {
    t3_total = List.length ev.e_decisions;
    t3_transformed = List.length plans;
    t3_split_dead = split_dead;
    t3_speedup_pct = ev.e_speedup_pct;
    t3_cycles = (ev.e_before.m_cycles, ev.e_after.m_cycles);
    t3_steps = (ev.e_before.m_result.steps, ev.e_after.m_result.steps);
    t3_l1 = (ev.e_before.m_l1_misses, ev.e_after.m_l1_misses);
    t3_l2 = (ev.e_before.m_l2_misses, ev.e_after.m_l2_misses);
    t3_accesses = (ev.e_before.m_accesses, ev.e_after.m_accesses);
    t3_mismatch = ev.e_before.m_result.output <> ev.e_after.m_result.output;
    t3_timings =
      {
        t_compile_ms = t_compile;
        t_profile_ms = t_profile;
        t_analyze_ms = ev.e_phases.D.ph_analyze_ms;
        t_transform_ms = ev.e_phases.D.ph_transform_ms;
        t_measure_ms = ev.e_phases.D.ph_measure_ms;
      };
  }

let table3 run ~roster =
  let t =
    Table.create
      [ ("Benchmark", Table.Left); ("PBO", Table.Left); ("T", Table.Right);
        ("Tt", Table.Right); ("S/D", Table.Right);
        ("Performance", Table.Right); ("paper", Table.Right) ]
  in
  (* the paper shows mcf and moldyn with and without profiles *)
  let units =
    List.concat_map
      (fun (e : Suite.entry) ->
        (e, W.PBO, "yes")
        ::
        (if List.mem e.name [ "181.mcf"; "moldyn" ] then
           [ (e, W.ISPBO, "no") ]
         else []))
      roster
  in
  precompile roster;
  let futures =
    List.map
      (fun (e, scheme, label) ->
        progress "(evaluating %s [%s]...)" e.Suite.name label;
        ( e, scheme, label,
          Pool.submit run.pool
            (t3_job ~backend:run.run_backend ~fidelity:run.run_fidelity e
               scheme) ))
      units
  in
  let warnings = ref [] in
  let sum_steps = ref 0 and sum_measure_ms = ref 0.0 in
  List.iter
    (fun ((e : Suite.entry), scheme, label, fut) ->
      let paper =
        match e.paper with Some p -> p.p_perf | None -> "-"
      in
      match Pool.await fut with
      | Ok row ->
        if row.t3_mismatch then
          warnings :=
            Printf.sprintf "!! OUTPUT MISMATCH on %s — transformation bug"
              e.name
            :: !warnings;
        let sb, sa = row.t3_steps in
        sum_steps := !sum_steps + sb + sa;
        sum_measure_ms := !sum_measure_ms +. row.t3_timings.t_measure_ms;
        Table.add_row t
          [ e.name; label; string_of_int row.t3_total;
            string_of_int row.t3_transformed;
            string_of_int row.t3_split_dead;
            Printf.sprintf "%+.1f%%" row.t3_speedup_pct; paper ];
        push_record run
          {
            r_experiment = "table3"; r_benchmark = e.name;
            r_scheme = Some (W.name scheme); r_error = None;
            r_cycles = Some row.t3_cycles; r_steps = Some row.t3_steps;
            r_l1_misses = Some row.t3_l1;
            r_l2_misses = Some row.t3_l2;
            r_accesses = Some row.t3_accesses;
            r_speedup_pct = Some row.t3_speedup_pct;
            r_timings = row.t3_timings;
          }
      | Error (err : Pool.error) ->
        warnings :=
          Printf.sprintf "!! %s [%s] failed: %s" e.name label err.err_exn
          :: !warnings;
        Table.add_row t
          [ e.name; label; "-"; "-"; "-";
            "ERROR: " ^ short_error err.err_exn; paper ];
        push_record run
          {
            r_experiment = "table3"; r_benchmark = e.name;
            r_scheme = Some (W.name scheme); r_error = Some err.err_exn;
            r_cycles = None; r_steps = None; r_l1_misses = None;
            r_l2_misses = None; r_accesses = None;
            r_speedup_pct = None; r_timings = no_timings;
          })
    futures;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render t);
  (* the measure phase dominates bench wall-clock; report its aggregate
     VM throughput so backend speedups are visible at a glance *)
  if !sum_measure_ms > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "measure: %.1f Msteps/s [%s backend, %s]\n"
         (float_of_int !sum_steps /. !sum_measure_ms /. 1000.0)
         (Backend.to_string run.run_backend)
         (Sampled.fidelity_name run.run_fidelity));
  List.iter
    (fun w -> Buffer.add_string buf (w ^ "\n"))
    (List.rev !warnings);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* pool: Table-3-class rows for the index-linked pool rewrite. One     *)
(* row per self-referential record in the roster; the shape-poolable   *)
(* ones are transformed, oracle-validated and measured, the refuted    *)
(* ones carry their first witness so the table doubles as a survey of  *)
(* why pooling does not apply.                                         *)
(* ------------------------------------------------------------------ *)

type pool_row = {
  pl_oracle : string;          (* "ok" or the first failure *)
  pl_speedup_pct : float;
  pl_cycles : int * int;
  pl_steps : int * int;
  pl_l1 : int * int;
  pl_l2 : int * int;
  pl_accesses : int * int;
  pl_timings : timings;
}

let pool_job ~backend ~fidelity (e : Suite.entry) (v : Shape.verdict) () =
  let prog, t_compile = compile e in
  let plan =
    H.Pool { Slo_core.Transform.po_typ = v.Shape.v_typ; po_links = v.v_links }
  in
  let oracle, t_oracle =
    timed (fun () -> Slo_suite.Oracle.run ~args:e.ref_args prog [ plan ])
  in
  let transformed, t_tr =
    timed (fun () -> D.transform_with_plans ~verify:true prog [ plan ])
  in
  let (before, after), t_me =
    timed (fun () ->
        ( D.measure ~args:e.ref_args ~backend ~fidelity prog,
          D.measure ~args:e.ref_args ~backend ~fidelity transformed ))
  in
  {
    pl_oracle =
      (if Slo_suite.Oracle.ok oracle then "ok"
       else
         match oracle.r_failures with
         | f :: _ -> Slo_suite.Oracle.string_of_failure f
         | [] -> "ok");
    pl_speedup_pct = D.speedup_pct ~before ~after;
    pl_cycles = (before.m_cycles, after.m_cycles);
    pl_steps = (before.m_result.steps, after.m_result.steps);
    pl_l1 = (before.m_l1_misses, after.m_l1_misses);
    pl_l2 = (before.m_l2_misses, after.m_l2_misses);
    pl_accesses = (before.m_accesses, after.m_accesses);
    pl_timings =
      {
        t_compile_ms = t_compile;
        t_profile_ms = 0.0;
        t_analyze_ms = t_oracle;
        t_transform_ms = t_tr;
        t_measure_ms = t_me;
      };
  }

let pool_table run ~roster =
  let t =
    Table.create
      [ ("Benchmark", Table.Left); ("Type", Table.Left);
        ("Links", Table.Left); ("Oracle", Table.Left);
        ("Performance", Table.Right) ]
  in
  precompile roster;
  (* shape verdicts are cheap and deterministic: collect them serially,
     then farm out only the measured (poolable) units *)
  let units =
    List.concat_map
      (fun (e : Suite.entry) ->
        match compile e with
        | prog, _ ->
          List.map
            (fun (v : Shape.verdict) -> (e, v))
            (Shape.verdicts (Shape.analyze prog))
        | exception _ -> [])
      roster
  in
  let futures =
    List.map
      (fun ((e : Suite.entry), (v : Shape.verdict)) ->
        if v.Shape.v_poolable then begin
          progress "(pooling %s.%s...)" e.name v.v_typ;
          ( e, v,
            Some
              (Pool.submit run.pool
                 (pool_job ~backend:run.run_backend
                    ~fidelity:run.run_fidelity e v)) )
        end
        else (e, v, None))
      units
  in
  let warnings = ref [] in
  List.iter
    (fun ((e : Suite.entry), (v : Shape.verdict), fut) ->
      let links = String.concat "," v.Shape.v_link_names in
      match fut with
      | None ->
        let why =
          match v.v_witnesses with
          | w :: _ -> Printf.sprintf "not poolable [%s]"
                        (Shape.reason_name w.Shape.sw_reason)
          | [] -> "not poolable"
        in
        Table.add_row t [ e.name; v.v_typ; links; why; "-" ]
      | Some fut -> (
        match Pool.await fut with
        | Ok row ->
          if row.pl_oracle <> "ok" then
            warnings :=
              Printf.sprintf "!! ORACLE REFUSED pool of %s.%s: %s" e.name
                v.v_typ row.pl_oracle
              :: !warnings;
          Table.add_row t
            [ e.name; v.v_typ; links; row.pl_oracle;
              Printf.sprintf "%+.1f%%" row.pl_speedup_pct ];
          push_record run
            {
              r_experiment = "pool"; r_benchmark = e.name;
              r_scheme = None; r_error = None;
              r_cycles = Some row.pl_cycles; r_steps = Some row.pl_steps;
              r_l1_misses = Some row.pl_l1; r_l2_misses = Some row.pl_l2;
              r_accesses = Some row.pl_accesses;
              r_speedup_pct = Some row.pl_speedup_pct;
              r_timings = row.pl_timings;
            }
        | Error (err : Pool.error) ->
          warnings :=
            Printf.sprintf "!! pool of %s.%s failed: %s" e.name v.v_typ
              err.err_exn
            :: !warnings;
          Table.add_row t
            [ e.name; v.v_typ; links; "-";
              "ERROR: " ^ short_error err.err_exn ];
          push_record run
            {
              r_experiment = "pool"; r_benchmark = e.name;
              r_scheme = None; r_error = Some err.err_exn;
              r_cycles = None; r_steps = None; r_l1_misses = None;
              r_l2_misses = None; r_accesses = None; r_speedup_pct = None;
              r_timings = no_timings;
            }))
    futures;
  let buf = Buffer.create 1024 in
  if units = [] then
    Buffer.add_string buf "(no self-referential record types in the roster)\n"
  else Buffer.add_string buf (Table.render t);
  List.iter
    (fun w -> Buffer.add_string buf (w ^ "\n"))
    (List.rev !warnings);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_pair = function
  | Some (b, a) -> (Json.Int b, Json.Int a)
  | None -> (Json.Null, Json.Null)

let json_of_record ?(with_timings = true) r =
  let tm = if with_timings then r.r_timings else no_timings in
  let cyc_b, cyc_a = json_of_pair r.r_cycles in
  let stp_b, stp_a = json_of_pair r.r_steps in
  let l1_b, l1_a = json_of_pair r.r_l1_misses in
  let l2_b, l2_a = json_of_pair r.r_l2_misses in
  let acc_b, acc_a = json_of_pair r.r_accesses in
  (* VM throughput of this row's measure phase; derived from a timing, so
     it is nulled alongside them under [~with_timings:false] *)
  let msteps =
    match r.r_steps with
    | Some (b, a) when with_timings && tm.t_measure_ms > 0.0 ->
      Json.Float (float_of_int (b + a) /. tm.t_measure_ms /. 1000.0)
    | _ -> Json.Null
  in
  Json.Obj
    [ ("experiment", Json.String r.r_experiment);
      ("benchmark", Json.String r.r_benchmark);
      ("scheme",
       match r.r_scheme with Some s -> Json.String s | None -> Json.Null);
      ("error",
       match r.r_error with Some e -> Json.String e | None -> Json.Null);
      ("cycles_before", cyc_b); ("cycles_after", cyc_a);
      ("steps_before", stp_b); ("steps_after", stp_a);
      ("l1_misses_before", l1_b); ("l1_misses_after", l1_a);
      ("l2_misses_before", l2_b); ("l2_misses_after", l2_a);
      ("accesses_before", acc_b); ("accesses_after", acc_a);
      ("speedup_pct",
       match r.r_speedup_pct with Some p -> Json.Float p | None -> Json.Null);
      ("measure_msteps_per_s", msteps);
      ("timings_ms",
       Json.Obj
         [ ("compile", Json.Float tm.t_compile_ms);
           ("profile", Json.Float tm.t_profile_ms);
           ("analyze", Json.Float tm.t_analyze_ms);
           ("transform", Json.Float tm.t_transform_ms);
           ("measure", Json.Float tm.t_measure_ms) ]) ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if String.equal line "" then "unknown" else line
  with _ -> "unknown"

let write_json run ~path =
  (* [sampled_skip] stays in schema 3 so artifacts keep comparing
     against older ones: 0 (full warming, the only sampled layout) *)
  let window, stride, skip =
    match run.run_fidelity with
    | Sampled.Exact -> (Json.Null, Json.Null, Json.Null)
    | Sampled.Sampled { window; stride } ->
      (Json.Int window, Json.Int stride, Json.Int 0)
  in
  let doc =
    Json.Obj
      [ ("schema_version", Json.Int 3);
        ("tool", Json.String "slo-bench");
        ("git_rev", Json.String (git_rev ()));
        ("backend", Json.String (Backend.to_string run.run_backend));
        ("fidelity", Json.String (Sampled.fidelity_name run.run_fidelity));
        ("sampled_window", window);
        ("sampled_stride", stride);
        ("sampled_skip", skip);
        ("jobs", Json.Int (jobs run));
        ("wall_clock_s",
         Json.Float (Slo_util.Clock.elapsed_ms ~since:run.t_start /. 1000.0));
        ("results", Json.List (List.map json_of_record (records run))) ]
  in
  Slo_util.Files.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc
