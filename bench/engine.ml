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
  r_measured : (D.measurement * D.measurement) option;
  r_timings : timings;
}

let timed = Slo_util.Clock.timed

(* ------------------------------------------------------------------ *)
(* The memo. The first caller of a key computes it outside the lock    *)
(* while later callers of that key wait for the result, so each key   *)
(* computes once and distinct keys compute in parallel. An exception   *)
(* is stored like a value and re-raised to every caller.               *)
(* ------------------------------------------------------------------ *)

type 'v cell = { mutable result : ('v, exn) result option }

type ('k, 'v) memo = {
  lock : Mutex.t;
  filled : Condition.t;
  cells : ('k, 'v cell) Hashtbl.t;
}

let memo () =
  { lock = Mutex.create (); filled = Condition.create ();
    cells = Hashtbl.create 16 }

(* the value under [key] and whether this call computed it *)
let memoized m key f =
  Mutex.lock m.lock;
  let cell, fresh =
    match Hashtbl.find_opt m.cells key with
    | Some cell -> (cell, false)
    | None ->
      let cell = { result = None } in
      Hashtbl.replace m.cells key cell;
      (cell, true)
  in
  if fresh then begin
    Mutex.unlock m.lock;
    let r = try Ok (f ()) with exn -> Error exn in
    Mutex.lock m.lock;
    cell.result <- Some r;
    Condition.broadcast m.filled
  end;
  while Option.is_none cell.result do
    Condition.wait m.filled m.lock
  done;
  Mutex.unlock m.lock;
  match Option.get cell.result with
  | Ok v -> (v, fresh)
  | Error exn -> raise exn

(* keyed by source bytes *)
let compiles : (string, Ir.program * float) memo = memo ()

(* keyed by source bytes x args x instrument *)
let profiles : (string * int list * bool, Feedback.t * float) memo = memo ()

let compile (e : Suite.entry) =
  fst
    (memoized compiles e.source (fun () ->
         timed (fun () -> D.compile ~verify:true e.source)))

let profile ?args ?(instrument = true) (e : Suite.entry) =
  let args = Option.value args ~default:e.train_args in
  match
    memoized profiles (e.source, args, instrument) (fun () ->
        let prog, _ = compile e in
        timed (fun () -> fst (Collect.collect ~args ~instrument prog)))
  with
  | (fb, ms), true -> (fb, ms)
  | (fb, _), false -> (fb, 0.0)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  pool : Pool.t;
  run_fidelity : Sampled.fidelity;
  mutable recs : record list; (* reversed *)
  t_start : int64; (* monotonic, Slo_util.Clock *)
}

let create_run ?(fidelity = Sampled.Exact) ~jobs () =
  { pool = Pool.create ~jobs; run_fidelity = fidelity; recs = [];
    t_start = Slo_util.Clock.now_ns () }

let jobs run = Pool.jobs run.pool
let records run = List.rev run.recs
let push_record run r = run.recs <- r :: run.recs
let finish run = Pool.shutdown run.pool

let progress fmt = Printf.printf (fmt ^^ "\n%!")

let short_error msg =
  let msg = String.map (fun c -> if c = '\n' then ' ' else c) msg in
  if String.length msg <= 48 then msg else String.sub msg 0 45 ^ "..."

(* ------------------------------------------------------------------ *)
(* The row path shared by every table                                  *)
(* ------------------------------------------------------------------ *)

(* what a finished job adds: its cells, its record's measurements and
   timings, and an optional warning *)
type row = {
  cells : string list;
  measured : (D.measurement * D.measurement) option;
  timings : timings;
  warning : string option;
}

(* A table line: a job whose result [ok] turns into a row and whose
   failure [error] turns into ERROR cells and a warning, or a row with
   no job and no record. *)
type 'a line =
  | Job of {
      bench : string;
      scheme : string option;
      future : 'a Pool.future;
      ok : 'a -> row;
      error : string -> string list * string;
    }
  | Note of string list

(* Await the jobs in roster order, add each row or ERROR row to [t], push
   each job's record, and return the warnings in order. *)
let add_rows run t ~experiment lines =
  List.filter_map
    (function
      | Note cells ->
        Table.add_row t cells;
        None
      | Job j ->
        let record =
          { r_experiment = experiment; r_benchmark = j.bench;
            r_scheme = j.scheme; r_error = None; r_measured = None;
            r_timings = no_timings }
        in
        let cells, record, warning =
          match Pool.await j.future with
          | Ok x ->
            let row = j.ok x in
            ( row.cells,
              { record with r_measured = row.measured;
                r_timings = row.timings },
              row.warning )
          | Error (err : Pool.error) ->
            let cells, warning = j.error err.err_exn in
            (cells, { record with r_error = Some err.err_exn }, Some warning)
        in
        Table.add_row t cells;
        push_record run record;
        warning)
    lines

(* the table, then one line each *)
let render t lines =
  String.concat "" (Table.render t :: List.map (fun l -> l ^ "\n") lines)

(* ------------------------------------------------------------------ *)
(* Table 1: types and transformable types (analysis-only rows)         *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_total : int;
  t1_legal : int;
  t1_ptsto : int;
  t1_relax : int;
  t1_timings : timings;
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
    t1_timings =
      { no_timings with t_compile_ms = t_compile; t_analyze_ms = t_analyze };
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
  let sum_l = ref 0.0 and sum_p = ref 0.0 and sum_r = ref 0.0 in
  let n = ref 0 in
  let line (e : Suite.entry) =
    let paper_l, paper_r =
      match e.paper with
      | Some p -> (Table.fpct p.p_legal_pct, Table.fpct p.p_relax_pct)
      | None -> ("-", "-")
    in
    let ok row =
      let pct x = 100.0 *. float_of_int x /. float_of_int row.t1_total in
      sum_l := !sum_l +. pct row.t1_legal;
      sum_p := !sum_p +. pct row.t1_ptsto;
      sum_r := !sum_r +. pct row.t1_relax;
      incr n;
      { cells =
          [ e.name; string_of_int row.t1_total; string_of_int row.t1_legal;
            Table.fpct (pct row.t1_legal); string_of_int row.t1_ptsto;
            Table.fpct (pct row.t1_ptsto); string_of_int row.t1_relax;
            Table.fpct (pct row.t1_relax); paper_l; paper_r ];
        measured = None; timings = row.t1_timings; warning = None }
    in
    let error msg =
      ( [ e.name; "ERROR"; "-"; "-"; "-"; "-"; "-"; "-"; paper_l; paper_r ],
        Printf.sprintf "!! %s failed: %s" e.name msg )
    in
    Job { bench = e.name; scheme = None;
          future = Pool.submit run.pool (t1_job e); ok; error }
  in
  let warnings = add_rows run t ~experiment:"table1" (List.map line roster) in
  Table.add_sep t;
  let avg x = if !n = 0 then 0.0 else !x /. float_of_int !n in
  Table.add_row t
    [ "Average:"; ""; ""; Table.fpct (avg sum_l); "";
      Table.fpct (avg sum_p); ""; Table.fpct (avg sum_r);
      Table.fpct Suite.paper_avg_legal_pct;
      Table.fpct Suite.paper_avg_relax_pct ];
  render t warnings

(* ------------------------------------------------------------------ *)
(* Table 3: transformed types and performance impact (full pipeline)   *)
(* ------------------------------------------------------------------ *)

let t3_job ~fidelity (e : Suite.entry) scheme ~label ~paper () =
  let prog, t_compile = compile e in
  let feedback, t_profile =
    if W.needs_profile scheme then begin
      let fb, ms = profile e in
      (Some fb, ms)
    end
    else (None, 0.0)
  in
  let ev =
    D.evaluate ~args:e.ref_args ~verify:true ~fidelity ~scheme ~feedback prog
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
    cells =
      [ e.name; label; string_of_int (List.length ev.e_decisions);
        string_of_int (List.length plans); string_of_int split_dead;
        Printf.sprintf "%+.1f%%" ev.e_speedup_pct; paper ];
    measured = Some (ev.e_before, ev.e_after);
    timings =
      {
        t_compile_ms = t_compile;
        t_profile_ms = t_profile;
        t_analyze_ms = ev.e_phases.D.ph_analyze_ms;
        t_transform_ms = ev.e_phases.D.ph_transform_ms;
        t_measure_ms = ev.e_phases.D.ph_measure_ms;
      };
    warning =
      (if ev.e_before.m_result.output <> ev.e_after.m_result.output then
         Some
           (Printf.sprintf "!! OUTPUT MISMATCH on %s — transformation bug"
              e.name)
       else None);
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
  let sum_steps = ref 0 and sum_measure_ms = ref 0.0 in
  let ok row =
    Option.iter
      (fun ((b : D.measurement), (a : D.measurement)) ->
        sum_steps := !sum_steps + b.m_result.steps + a.m_result.steps)
      row.measured;
    sum_measure_ms := !sum_measure_ms +. row.timings.t_measure_ms;
    row
  in
  let line ((e : Suite.entry), scheme, label) =
    progress "(evaluating %s [%s]...)" e.name label;
    let paper = match e.paper with Some p -> p.p_perf | None -> "-" in
    let error msg =
      ( [ e.name; label; "-"; "-"; "-"; "ERROR: " ^ short_error msg; paper ],
        Printf.sprintf "!! %s [%s] failed: %s" e.name label msg )
    in
    Job { bench = e.name; scheme = Some (W.name scheme);
          future =
            Pool.submit run.pool
              (t3_job ~fidelity:run.run_fidelity e scheme ~label ~paper);
          ok; error }
  in
  let warnings = add_rows run t ~experiment:"table3" (List.map line units) in
  (* the measure phase dominates bench wall-clock; report its aggregate
     VM throughput so measure-phase speedups are visible at a glance *)
  render t
    (if !sum_measure_ms > 0.0 then
       Printf.sprintf "measure: %.1f Msteps/s [%s backend, %s]"
         (float_of_int !sum_steps /. !sum_measure_ms /. 1000.0)
         (Backend.to_string Backend.default)
         (Sampled.fidelity_name run.run_fidelity)
       :: warnings
     else warnings)

(* ------------------------------------------------------------------ *)
(* pool: Table-3-class rows for the index-linked pool rewrite. One     *)
(* row per self-referential record in the roster; the shape-poolable   *)
(* ones are transformed, oracle-validated and measured, the refuted    *)
(* ones carry their first witness so the table doubles as a survey of  *)
(* why pooling does not apply.                                         *)
(* ------------------------------------------------------------------ *)

let pool_job ~fidelity (e : Suite.entry) (v : Shape.verdict) ~links () =
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
        ( D.measure ~args:e.ref_args ~fidelity prog,
          D.measure ~args:e.ref_args ~fidelity transformed ))
  in
  let oracle =
    if Slo_suite.Oracle.ok oracle then "ok"
    else
      match oracle.r_failures with
      | f :: _ -> Slo_suite.Oracle.string_of_failure f
      | [] -> "ok"
  in
  {
    cells =
      [ e.name; v.v_typ; links; oracle;
        Printf.sprintf "%+.1f%%" (D.speedup_pct ~before ~after) ];
    measured = Some (before, after);
    timings =
      {
        t_compile_ms = t_compile;
        t_profile_ms = 0.0;
        t_analyze_ms = t_oracle;
        t_transform_ms = t_tr;
        t_measure_ms = t_me;
      };
    warning =
      (if oracle <> "ok" then
         Some
           (Printf.sprintf "!! ORACLE REFUSED pool of %s.%s: %s" e.name
              v.v_typ oracle)
       else None);
  }

let pool_table run ~roster =
  let t =
    Table.create
      [ ("Benchmark", Table.Left); ("Type", Table.Left);
        ("Links", Table.Left); ("Oracle", Table.Left);
        ("Performance", Table.Right) ]
  in
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
  let line ((e : Suite.entry), (v : Shape.verdict)) =
    let links = String.concat "," v.Shape.v_link_names in
    if v.v_poolable then begin
      progress "(pooling %s.%s...)" e.name v.v_typ;
      let error msg =
        ( [ e.name; v.v_typ; links; "-"; "ERROR: " ^ short_error msg ],
          Printf.sprintf "!! pool of %s.%s failed: %s" e.name v.v_typ msg )
      in
      Job { bench = e.name; scheme = None;
            future =
              Pool.submit run.pool
                (pool_job ~fidelity:run.run_fidelity e v ~links);
            ok = Fun.id; error }
    end
    else
      let why =
        match v.v_witnesses with
        | w :: _ -> Printf.sprintf "not poolable [%s]"
                      (Shape.reason_name w.Shape.sw_reason)
        | [] -> "not poolable"
      in
      Note [ e.name; v.v_typ; links; why; "-" ]
  in
  let warnings = add_rows run t ~experiment:"pool" (List.map line units) in
  if units = [] then "(no self-referential record types in the roster)\n"
  else render t warnings

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_record ?(with_timings = true) r =
  let tm = if with_timings then r.r_timings else no_timings in
  let pair name (f : D.measurement -> int) =
    let b, a =
      match r.r_measured with
      | Some (b, a) -> (Json.Int (f b), Json.Int (f a))
      | None -> (Json.Null, Json.Null)
    in
    [ (name ^ "_before", b); (name ^ "_after", a) ]
  in
  let steps (m : D.measurement) = m.m_result.steps in
  (* VM throughput of this row's measure phase; derived from a timing, so
     it is nulled alongside them under [~with_timings:false] *)
  let msteps =
    match r.r_measured with
    | Some (b, a) when with_timings && tm.t_measure_ms > 0.0 ->
      Json.Float
        (float_of_int (steps b + steps a) /. tm.t_measure_ms /. 1000.0)
    | _ -> Json.Null
  in
  Json.Obj
    ([ ("experiment", Json.String r.r_experiment);
       ("benchmark", Json.String r.r_benchmark);
       ("scheme",
        match r.r_scheme with Some s -> Json.String s | None -> Json.Null);
       ("error",
        match r.r_error with Some e -> Json.String e | None -> Json.Null) ]
    @ pair "cycles" (fun m -> m.m_cycles)
    @ pair "steps" steps
    @ pair "l1_misses" (fun m -> m.m_l1_misses)
    @ pair "l2_misses" (fun m -> m.m_l2_misses)
    @ pair "accesses" (fun m -> m.m_accesses)
    @ [ ("speedup_pct",
         match r.r_measured with
         | Some (before, after) -> Json.Float (D.speedup_pct ~before ~after)
         | None -> Json.Null);
        ("measure_msteps_per_s", msteps);
        ("timings_ms",
         Json.Obj
           [ ("compile", Json.Float tm.t_compile_ms);
             ("profile", Json.Float tm.t_profile_ms);
             ("analyze", Json.Float tm.t_analyze_ms);
             ("transform", Json.Float tm.t_transform_ms);
             ("measure", Json.Float tm.t_measure_ms) ]) ])

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if String.equal line "" then "unknown" else line
  with _ -> "unknown"

let write_json run ~path =
  (* [sampled_skip] and [backend] stay in schema 3 so artifacts keep
     comparing against older ones: 0 (full warming, the only sampled
     layout) and the compiled engine, the only one that measures *)
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
        ("backend", Json.String (Backend.to_string Backend.default));
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
