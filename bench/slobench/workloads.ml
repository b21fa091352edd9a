(* The four slobench workloads. Each calls only the public functions of
   the lib/ libraries, so reshaping the bench/ harnesses cannot change
   what is measured here, and each leaves every setting at its library
   default unless stated: closure backend, exact fidelity, automatic
   drain pipelining. *)

module Clock = Slo_util.Clock
module Json = Slo_util.Json
module D = Slo_core.Driver
module H = Slo_core.Heuristics
module Adv = Slo_core.Advisor
module W = Slo_profile.Weights
module Collect = Slo_profile.Collect
module Suite = Slo_suite.Suite
module Tune = Slo_tune.Tune
module Backend = Slo_vm.Backend
module P = Slo_server.Protocol
module Client = Slo_server.Client
module Server = Slo_server.Server

type sizes = {
  pbo_rows : (string * int list * int list) list;  (** program, train args, ref args *)
  static_min_rounds : int;
  daemon_rate : float;  (** offered load, requests per second *)
  tune_programs : (string * int list) list;  (** program, args *)
  tune_jobs : int;
  tune_budget_ms : float option;
  setups : int;  (** set-ups per run of a workload whose set-up takes about 0.5 s *)
  probe_program : string;  (** VM probe input (train args) of a workload that runs no program *)
  probe_rounds : int;  (** analysis-probe rounds over a workload's sources *)
}

(* The PBO rows: mcf chases pointers through 90 000 nodes, art is the
   peel, h264avc has no plan (its after-run repeats its before-run) and
   gobmk's hashnode is L2-resident and refused for pooling. Their inputs
   are below the roster's train/ref sizes, the working sets are not:
   mcf's scale and art's, h264avc's and gobmk's counts are iteration
   counts. That makes a pass about 6 s, so a 20 s run takes medians
   over three passes instead of timing one 16 s mcf row. The tune
   programs are sized the same way: a search each on sphinx and milc,
   about 6 s a pass. *)
let full =
  {
    pbo_rows =
      [ ("181.mcf", [ 1; 3 ], [ 1; 3 ]); ("179.art", [ 1 ], [ 2 ]);
        ("h264avc", [ 4 ], [ 8 ]); ("gobmk", [ 4 ], [ 8 ]) ];
    static_min_rounds = 1;
    daemon_rate = 2000.0;
    tune_programs = [ ("sphinx", [ 4 ]); ("milc", [ 2 ]) ];
    tune_jobs = 2;
    tune_budget_ms = None;
    setups = 5;
    probe_program = "sphinx";
    probe_rounds = 5;
  }

let smoke =
  {
    pbo_rows = [ ("povray", [ 15 ], [ 30 ]) ];
    static_min_rounds = 2;
    daemon_rate = 200.0;
    tune_programs = [ ("gobmk", [ 20 ]) ];
    tune_jobs = 1;
    tune_budget_ms = Some 200.0;
    setups = 1;
    probe_program = "povray";
    probe_rounds = 1;
  }

let names = [ "pbo-pipeline"; "static-advise"; "daemon-advise"; "tune-search" ]

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failures, oldest first *)
  metrics : metric list;
  fingerprint : (string * string) list;  (** sorted by key *)
}

type ctx = {
  sizes : sizes;
  rng : Random.State.t;
  lock : Mutex.t;  (* failures may be recorded from the daemon receiver *)
  mutable spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  fp : (string, string) Hashtbl.t;
}

let attempt ctx = Mutex.protect ctx.lock (fun () -> ctx.attempted <- ctx.attempted + 1)

let fail ctx fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect ctx.lock (fun () ->
          ctx.failed <- ctx.failed + 1;
          if List.length ctx.errors < 20 then ctx.errors <- msg :: ctx.errors))
    fmt

let span ctx name f = Spans.span ctx.spans name f
let now_ns () = Int64.to_int (Clock.now_ns ())
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Whole passes of fixed work, as many as fit the window at the pass's
   nominal length on this class of host: the count never depends on how
   fast a run happens to be, so every run does the same work. *)
let passes ~seconds ~pass_s f =
  for _ = 1 to max 1 (int_of_float (seconds /. pass_s)) do f () done

(* A window's signature: the decisions and counters its operations
   produced, keyed so the traced and untraced windows can be compared. *)
let sign ctx tbl key value =
  match Hashtbl.find_opt tbl key with
  | Some v when v <> value -> fail ctx "%s: %s, then %s" key v value
  | _ -> Hashtbl.replace tbl key value

let errmsg e = Printexc.to_string e
let all_programs = Suite.roster @ Suite.case_studies

(* Operation latencies in ms, overall and per group: a program, or a
   daemon request class and source. *)
type ops = { all : Samples.t; groups : (string, Samples.t) Hashtbl.t }

let ops_create n = { all = Samples.create n; groups = Hashtbl.create 32 }

let record ops group ms =
  Samples.add ops.all ms;
  match Hashtbl.find_opt ops.groups group with
  | Some s -> Samples.add s ms
  | None ->
    let s = Samples.create 64 in
    Samples.add s ms;
    Hashtbl.add ops.groups group s

(* geometric mean of the group medians: every program weighs the same
   whatever its share of the operations *)
let gm50 ops =
  let logs = Hashtbl.fold (fun _ s acc -> Float.log (Samples.percentile s 50.0) :: acc) ops.groups [] in
  Float.exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))

type window = { ops : ops; extras : metric list }

type 'st workload = {
  setup : ctx -> 'st;
  teardown : 'st -> unit;
  window : ctx -> 'st -> seconds:float -> (string, string) Hashtbl.t -> window;
  finish : ctx -> 'st -> metric list;  (** checks and counters after the last window *)
  setup_count : sizes -> int;  (** set-ups per run; [setup_s] is their median *)
  programs : sizes -> Suite.entry list;  (** what it compiles: the analysis probe's inputs *)
  probe_input : sizes -> string * int list;  (** program and input of the VM probes *)
}

(* A set-up that takes milliseconds, not tune's half second, runs five
   times as often: the first few set-ups of a process run slow and
   single ones spike, and the median of 25 repeats across runs where
   the median of 5 did not. *)
let many_setups (s : sizes) = 5 * s.setups

(* the VM probe input of a workload that runs no program itself *)
let probe_program s = (s.probe_program, (Suite.find s.probe_program).train_args)

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* pbo-pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let measurement_sig (x : D.measurement) =
  Printf.sprintf "cycles=%d l1=%d l2=%d steps=%d accesses=%d" x.m_cycles
    x.m_l1_misses x.m_l2_misses x.m_result.steps x.m_accesses

let plans_sig decisions =
  String.concat " | "
    (List.filter_map
       (fun (d : H.decision) -> Option.map H.plan_summary d.d_plan)
       decisions)

let collect ctx ~args prog =
  let fb, (rs : Collect.run_stats) =
    span ctx "profile.collect" (fun () -> Collect.collect ~args prog)
  in
  Spans.add_work ctx.spans "profile.collect" rs.result.steps;
  Spans.add_work ctx.spans "profile.pmu_events" rs.pmu_events;
  (fb, rs)

(* Driver.evaluate times its own phases; its two measurement runs go
   into the trace as one span at the end of the evaluate span *)
let evaluate ctx ~args ~feedback prog =
  span ctx "core.evaluate" (fun () ->
      let ev = D.evaluate ~args ~verify:true ~scheme:W.PBO ~feedback prog in
      let stop = now_ns () in
      Spans.record ctx.spans ~tid:0 "cachesim.measure"
        ~start_ns:(stop - int_of_float (ev.e_phases.ph_measure_ms *. 1e6))
        ~stop_ns:stop;
      Spans.add_work ctx.spans "cachesim.measure"
        (ev.e_before.m_result.steps + ev.e_after.m_result.steps);
      ev)

let pbo_row ctx sg ops ((e : Suite.entry), train, ref_) =
  attempt ctx;
  let t0 = now_ns () in
  match
    span ctx "pbo.row" (fun () ->
        let prog = span ctx "pbo.compile" (fun () -> D.compile ~verify:true e.source) in
        let fb, _ = collect ctx ~args:train prog in
        evaluate ctx ~args:ref_ ~feedback:(Some fb) prog)
  with
  | exception ex -> fail ctx "pbo %s: %s" e.name (errmsg ex)
  | ev ->
    record ops e.name (ms_since t0);
    let b = ev.e_before.m_result and a = ev.e_after.m_result in
    if b.output <> a.output || b.exit_code <> a.exit_code then
      fail ctx "pbo %s: output differs after the transformation" e.name;
    sign ctx sg ("pbo/" ^ e.name ^ "/before") (measurement_sig ev.e_before);
    sign ctx sg ("pbo/" ^ e.name ^ "/after") (measurement_sig ev.e_after);
    sign ctx sg ("pbo/" ^ e.name ^ "/plans") (plans_sig ev.e_decisions)

let pbo =
  {
    setup =
      (fun ctx ->
        (* the front end's check of the rows' inputs *)
        List.map
          (fun (n, train, ref_) ->
            let e = Suite.find n in
            ignore (D.compile ~verify:true e.source);
            (e, train, ref_))
          ctx.sizes.pbo_rows);
    teardown = ignore;
    window =
      (fun ctx rows ~seconds sg ->
        let ops = ops_create 16 in
        passes ~seconds ~pass_s:6.5 (fun () ->
            List.iter (pbo_row ctx sg ops) (shuffle ctx.rng rows));
        { ops; extras = [] });
    finish = (fun _ _ -> []);
    setup_count = many_setups;
    programs = (fun s -> List.map (fun (n, _, _) -> Suite.find n) s.pbo_rows);
    probe_input = (fun s -> let n, train, _ = List.hd s.pbo_rows in (n, train));
  }

(* ------------------------------------------------------------------ *)
(* static-advise: every analysis layer, no VM, cache simulator or      *)
(* profile collection                                                  *)
(* ------------------------------------------------------------------ *)

let advise ctx src =
  let prog = span ctx "minic.compile" (fun () -> D.compile src) in
  span ctx "ir.verify" (fun () -> Verify.check prog);
  let leg = span ctx "core.legality" (fun () -> Slo_core.Legality.analyze prog) in
  ignore (span ctx "pointsto.analyze" (fun () -> Slo_pointsto.Pointsto.analyze prog));
  let aff =
    span ctx "core.affinity" (fun () ->
        Slo_core.Affinity.analyze prog (W.block_weights prog W.ISPBO ~feedback:None))
  in
  ignore (span ctx "ir.shape" (fun () -> Shape.analyze prog));
  let decisions =
    span ctx "core.decide" (fun () -> H.decide ~pool:true prog leg aff ~scheme:W.ISPBO)
  in
  ignore
    (span ctx "core.transform" (fun () ->
         D.transform_with_plans ~verify:true prog (H.plans decisions)));
  let report =
    span ctx "core.advisor" (fun () ->
        Adv.report (Adv.build prog leg aff ~decisions ~dcache:None))
  in
  let diags = span ctx "advice.check" (fun () -> Slo_advice.Advice.check prog) in
  ( plans_sig decisions,
    Digest.to_hex
      (Digest.string (report ^ String.concat "\n" (Slo_advice.Advice.summary diags))) )

let static_advise =
  {
    setup =
      (fun ctx ->
        List.map
          (fun (e : Suite.entry) ->
            let plans, digest = advise ctx e.source in
            (e, plans, digest))
          all_programs);
    teardown = ignore;
    window =
      (fun ctx progs ~seconds sg ->
        let ops = ops_create 8192 in
        let t0 = now_ns () in
        let rounds = ref 0 in
        while !rounds < ctx.sizes.static_min_rounds || ms_since t0 < seconds *. 1000.0 do
          List.iter
            (fun ((e : Suite.entry), plans, digest) ->
              attempt ctx;
              let t1 = now_ns () in
              match span ctx "static.program" (fun () -> advise ctx e.source) with
              | exception ex -> fail ctx "static %s: %s" e.name (errmsg ex)
              | p, d ->
                record ops e.name (ms_since t1);
                if p <> plans || d <> digest then
                  fail ctx "static %s: advice differs from the set-up run" e.name;
                sign ctx sg ("static/" ^ e.name ^ "/plans") p;
                sign ctx sg ("static/" ^ e.name ^ "/advice") d)
            (shuffle ctx.rng progs);
          incr rounds
        done;
        { ops; extras = [] });
    finish = (fun _ _ -> []);
    setup_count = many_setups;
    programs = (fun _ -> all_programs);
    probe_input = probe_program;
  }

(* ------------------------------------------------------------------ *)
(* tune-search                                                         *)
(* ------------------------------------------------------------------ *)

type tune_totals = {
  mutable searches : int;
  mutable explored : int;
  mutable rejected : int;
  mutable complete : int;
  mutable search_ms : float;
}

(* The candidate shuffle keeps the library's default seed: another
   order leaves the work the same but changes how it splits across the
   workers, which would read as run-to-run noise. *)
let tune_search ctx sg ops tot ((e : Suite.entry), args, prog, fb) =
  attempt ctx;
  let cfg =
    {
      (Tune.default_config ~scheme:W.PBO ~feedback:(Some fb)) with
      Tune.args;
      max_candidates = 96;
      jobs = ctx.sizes.tune_jobs;
      budget_ms = ctx.sizes.tune_budget_ms;
    }
  in
  let t0 = now_ns () in
  match span ctx "tune.search" (fun () -> Tune.search prog cfg) with
  | exception ex -> fail ctx "tune %s: %s" e.name (errmsg ex)
  | r ->
    let ms = ms_since t0 in
    record ops e.name ms;
    tot.searches <- tot.searches + 1;
    tot.explored <- tot.explored + r.t_explored;
    tot.rejected <- tot.rejected + r.t_rejected;
    if r.t_complete then tot.complete <- tot.complete + 1;
    tot.search_ms <- tot.search_ms +. ms;
    if r.t_found_cycles > r.t_heuristic_cycles then
      fail ctx "tune %s: result (%d cycles) worse than the heuristic (%d)" e.name
        r.t_found_cycles r.t_heuristic_cycles;
    (* a budgeted search stops wherever the clock says: only a complete
       search has a reproducible winner *)
    if r.t_complete then begin
      sign ctx sg ("tune/" ^ e.name ^ "/found")
        (String.concat " | " (List.map Slo_core.Codec.plan_to_string r.t_found));
      sign ctx sg ("tune/" ^ e.name ^ "/cycles")
        (Printf.sprintf "baseline=%d heuristic=%d found=%d" r.t_baseline_cycles
           r.t_heuristic_cycles r.t_found_cycles)
    end

let tune_search_workload =
  {
    setup =
      (fun ctx ->
        List.map
          (fun (n, args) ->
            let e = Suite.find n in
            let prog = D.compile ~verify:true e.source in
            (e, args, prog, fst (Collect.collect ~args prog)))
          ctx.sizes.tune_programs);
    teardown = ignore;
    window =
      (fun ctx progs ~seconds sg ->
        let ops = ops_create 16 in
        let tot = { searches = 0; explored = 0; rejected = 0; complete = 0; search_ms = 0.0 } in
        passes ~seconds ~pass_s:6.5 (fun () ->
            List.iter (tune_search ctx sg ops tot) (shuffle ctx.rng progs));
        let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
        {
          ops;
          extras =
            [
              m "tune.candidates" "count" (float_of_int tot.explored);
              m "tune.candidates_per_s" "1/s"
                (if tot.search_ms > 0.0 then float_of_int tot.explored /. (tot.search_ms /. 1000.0)
                 else 0.0);
              m "tune.rejected_ratio" "ratio" (ratio tot.rejected tot.explored);
              m "tune.complete_ratio" "ratio" (ratio tot.complete tot.searches);
            ];
        });
    finish = (fun _ _ -> []);
    setup_count = (fun s -> s.setups);
    programs = (fun s -> List.map (fun (n, _) -> Suite.find n) s.tune_programs);
    probe_input = (fun s -> List.hd s.tune_programs);
  }

(* ------------------------------------------------------------------ *)
(* daemon-advise: an in-process daemon under open-loop Poisson load    *)
(* ------------------------------------------------------------------ *)

type daemon = {
  sock : string;
  server : Thread.t;
  sources : Suite.entry array;
  payloads : string array;  (* warm request bytes, exactly as warmed *)
  refs : string array;  (* in-process advisor report per source *)
  mutable cold_sent : int;
  stats0 : P.stats_reply;  (* right after the warm-up *)
}

let cold_share = 0.05

let advise_payload src =
  Json.to_string ~indent:false
    (P.json_of_request
       (P.Advise { src; scheme = None; args = []; pool = false; deadline_ms = None }))

(* what the daemon's advise computes, called in-process *)
let reference_report src =
  let prog = D.compile ~verify:true src in
  let leg, aff = D.analyze prog ~scheme:W.ISPBO ~feedback:None in
  let decisions = H.decide prog leg aff ~scheme:W.ISPBO in
  Adv.report (Adv.build prog leg aff ~decisions ~dcache:None)

let report_of_reply raw =
  match P.reply_of_json (Json.of_string raw) with
  | Ok (P.R_advise a) -> Ok a.a_report
  | Ok (P.R_error { message; _ }) -> Error message
  | Ok _ -> Error "not an advise reply"
  | Error msg -> Error msg
  | exception Json.Parse_error msg -> Error msg

let stats sock =
  let c = Client.connect_socket ~socket:sock () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.rpc c P.Stats with
      | P.R_stats s -> s
      | _ -> failwith "stats: unexpected reply")

let daemon_setup ctx =
  let sock = Printf.sprintf "_artifacts/slobench-%d.sock" (Unix.getpid ()) in
  let cfg =
    {
      (Server.default_config ~socket_path:sock) with
      Server.jobs = 1;
      shards = 1;
      handle_sigterm = false;
    }
  in
  let server = Thread.create Server.run cfg in
  (* hand the lock to the server thread until it has bound its socket,
     so the first connect never waits out the client's 20 ms retry
     sleep *)
  let t0 = now_ns () in
  while not (Sys.file_exists sock) do
    if ms_since t0 > 10_000.0 then failwith "daemon: the server did not bind its socket";
    Thread.yield ()
  done;
  let sources = Array.of_list Suite.roster in
  let payloads = Array.map (fun (e : Suite.entry) -> advise_payload e.source) sources in
  let refs = Array.map (fun (e : Suite.entry) -> reference_report e.source) sources in
  let c = Client.connect_socket ~retry_for_s:10.0 ~socket:sock () in
  Array.iteri
    (fun i payload ->
      Client.send_raw c (P.inject_id ~id:i payload);
      match report_of_reply (Client.recv_raw c) with
      | Ok r when r = refs.(i) -> ()
      | Ok _ -> fail ctx "daemon %s: warm-up report differs from the in-process advisor" sources.(i).name
      | Error msg -> fail ctx "daemon %s: warm-up failed: %s" sources.(i).name msg)
    payloads;
  Client.close c;
  Array.iteri
    (fun i (e : Suite.entry) ->
      Hashtbl.replace ctx.fp ("daemon/" ^ e.name ^ "/advice") (Digest.to_hex (Digest.string refs.(i))))
    sources;
  { sock; server; sources; payloads; refs; cold_sent = 0; stats0 = stats sock }

let daemon_teardown d =
  (try
     let c = Client.connect_socket ~socket:d.sock () in
     ignore (Client.rpc c P.Shutdown);
     Client.close c
   with _ -> ());
  Thread.join d.server

type daemon_window = {
  warm : Samples.t;
  cold : Samples.t;
  mutable late : int;
  mutable sent : int;
}

let daemon_window ctx d ~seconds _sg =
  let rate = ctx.sizes.daemon_rate in
  (* the schedule: Poisson arrivals, each warm (a source index) or cold
     (-1 - source index) *)
  let due = ref [] and kind = ref [] in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t -. (Float.log (1.0 -. Random.State.float ctx.rng 1.0) /. rate);
    if !t >= seconds then continue := false
    else begin
      let src = Random.State.int ctx.rng (Array.length d.sources) in
      let cold = Random.State.float ctx.rng 1.0 < cold_share in
      due := int_of_float (!t *. 1e9) :: !due;
      kind := (if cold then -1 - src else src) :: !kind
    end
  done;
  let due = Array.of_list (List.rev !due) and kind = Array.of_list (List.rev !kind) in
  let n = Array.length due in
  let ops = ops_create (n + 1) in
  let dw = { warm = Samples.create (n + 1); cold = Samples.create (n / 10 + 16); late = 0; sent = 0 } in
  let c = Client.connect_socket ~socket:d.sock () in
  let t_start = now_ns () + 1_000_000 in
  let receiver () =
    let got = ref 0 in
    try
      while !got < n do
        let raw = Client.recv_raw c in
        let t_recv = now_ns () in
        incr got;
        match P.scan_reply_header raw with
        | None, _ -> fail ctx "daemon: reply without an id"
        | Some id, status -> (
          let lat = float_of_int (t_recv - t_start - due.(id)) /. 1e6 in
          let k = kind.(id) in
          record ops
            ((if k < 0 then "cold/" else "warm/") ^ d.sources.(if k < 0 then -1 - k else k).name)
            lat;
          Spans.record ctx.spans ~tid:(if k < 0 then 2 else 1)
            (if k < 0 then "server.cold" else "server.warm")
            ~start_ns:(t_start + due.(id)) ~stop_ns:t_recv;
          match status with
          | Error code -> fail ctx "daemon: request %d: %s" id code
          | Ok () when k >= 0 -> Samples.add dw.warm lat
          | Ok () -> (
            Samples.add dw.cold lat;
            match report_of_reply raw with
            | Ok r when r = d.refs.(-1 - k) -> ()
            | Ok _ -> fail ctx "daemon: cold request %d: report differs" id
            | Error msg -> fail ctx "daemon: cold request %d: %s" id msg))
      done
    with ex -> fail ctx "daemon: transport: %s (%d of %d replies)" (errmsg ex) !got n
  in
  let rx = Thread.create receiver () in
  (try
     let i = ref 0 in
     while !i < n do
       let wait = t_start + due.(!i) - now_ns () in
       if wait > 0 then Thread.delay (float_of_int wait /. 1e9);
       (* everything due goes out under one flush, at most 16 frames
          before yielding to the receiver *)
       let batch = ref 0 in
       while !i < n && !batch < 16 && t_start + due.(!i) <= now_ns () do
         let k = kind.(!i) in
         let payload =
           if k >= 0 then d.payloads.(k)
           else begin
             (* unique across the server's lifetime, so it misses every
                cache *)
             d.cold_sent <- d.cold_sent + 1;
             advise_payload
               (Printf.sprintf "%s\n/* cold request %d */\n" d.sources.(-1 - k).source
                  d.cold_sent)
           end
         in
         attempt ctx;
         if now_ns () - (t_start + due.(!i)) > 1_000_000 then dw.late <- dw.late + 1;
         Client.send_raw_noflush c (P.inject_id ~id:!i payload);
         dw.sent <- dw.sent + 1;
         incr batch;
         incr i
       done;
       Client.flush_out c;
       Thread.yield ()
     done
   with ex -> fail ctx "daemon: send: %s" (errmsg ex));
  Thread.join rx;
  Client.close c;
  let pct s p = if Samples.count s = 0 then 0.0 else Samples.percentile s p in
  {
    ops;
    extras =
      [
        m "server.warm_ms.p50" "ms" (pct dw.warm 50.0);
        m "server.warm_ms.p90" "ms" (pct dw.warm 90.0);
        m "server.warm_ms.p999" "ms" (pct dw.warm 99.9);
        m "server.cold_ms.p50" "ms" (pct dw.cold 50.0);
        m "server.cold_ms.p90" "ms" (pct dw.cold 90.0);
        m "server.cold_ms.p99" "ms" (pct dw.cold 99.0);
        m "server.cold_requests" "count" (float_of_int (Samples.count dw.cold));
        m "loadgen.late_pct" "%"
          (if dw.sent = 0 then 0.0 else 100.0 *. float_of_int dw.late /. float_of_int dw.sent);
      ];
  }

let daemon_finish ctx d =
  match stats d.sock with
  | exception ex ->
    fail ctx "daemon: stats: %s" (errmsg ex);
    []
  | s ->
    let s0 = d.stats0 in
    let misses = s.s_result_misses - s0.s_result_misses in
    if misses <> d.cold_sent then
      fail ctx "daemon: %d result misses after the warm-up for %d cold requests" misses
        d.cold_sent;
    let ratio h mi = if h + mi = 0 then 0.0 else float_of_int h /. float_of_int (h + mi) in
    let rh = s.s_result_hits - s0.s_result_hits and ih = s.s_ir_hits - s0.s_ir_hits in
    let im = s.s_ir_misses - s0.s_ir_misses in
    [
      m "server.result_hit_ratio" "ratio" (ratio rh misses);
      m "server.ir_hit_ratio" "ratio" (ratio ih im);
      m "server.evictions" "count" (float_of_int s.s_cache_evictions);
    ]

let daemon_advise =
  {
    setup = daemon_setup;
    teardown = daemon_teardown;
    window = daemon_window;
    finish = daemon_finish;
    setup_count = many_setups;
    programs = (fun _ -> Suite.roster);
    probe_input = probe_program;
  }

(* ------------------------------------------------------------------ *)
(* The layer ledger (traced runs only)                                 *)
(* ------------------------------------------------------------------ *)

let analysis_layers =
  [
    "minic.compile"; "ir.verify"; "ir.shape"; "pointsto.analyze"; "core.legality";
    "core.affinity"; "core.decide"; "core.transform"; "core.advisor"; "advice.check";
  ]

(* A layer metric comes from the traced window's own spans when the
   workload calls that layer from the benchmark's side. A traced run
   reports every layer metric, so the layers a workload does not reach
   that way are probed once after the window, on its own programs: the
   analysis chain over its sources, and the VM and the cache simulator
   on one of its inputs. The VM with and without a ring, the serial
   drain and the sampled drain run inside Tune.search or nowhere, so
   they are always probed. *)
let probes ctx w ~need =
  if List.exists need analysis_layers then
    for _ = 1 to ctx.sizes.probe_rounds do
      List.iter (fun (e : Suite.entry) -> ignore (advise ctx e.source)) (w.programs ctx.sizes)
    done;
  let name, args = w.probe_input ctx.sizes in
  let prog = D.compile ~verify:true (Suite.find name).source in
  let vm l f =
    let r : Backend.result = span ctx l f in
    Spans.add_work ctx.spans l r.steps;
    r
  in
  let plain = vm "vm.plain" (fun () -> Backend.run_program ~args Backend.default prog) in
  let push =
    vm "vm.push" (fun () ->
        Backend.run_program ~ring:(Slo_cachesim.Ring.create ()) ~args Backend.default prog)
  in
  let measure l f =
    let x : D.measurement = span ctx l f in
    Spans.add_work ctx.spans l x.m_result.steps;
    x
  in
  let serial = measure "cachesim.measure_serial" (fun () -> D.measure ~pipeline:false ~args prog) in
  let fidelity = (Tune.default_config ~scheme:W.PBO ~feedback:None).Tune.fidelity in
  let sampled = measure "cachesim.measure_sampled" (fun () -> D.measure ~fidelity ~args prog) in
  let piped =
    if need "cachesim.measure" then [ measure "cachesim.measure" (fun () -> D.measure ~args prog) ]
    else []
  in
  if List.exists (fun x -> measurement_sig x <> measurement_sig serial) piped then
    fail ctx "probe %s: pipelined and serial drains disagree" name;
  let collected =
    if need "profile.collect" then [ (snd (collect ctx ~args prog)).result ] else []
  in
  let runs = push :: collected @ List.map (fun (x : D.measurement) -> x.m_result) (serial :: sampled :: piped) in
  if List.exists (fun (r : Backend.result) -> r <> plain) runs then
    fail ctx "probe %s: VM results differ between the layer probes" name;
  serial

(* A layer metric comes from the traced window's own spans when the
   workload calls that layer from the benchmark's side. A traced run
   reports every layer metric, so the layers a workload does not reach
   that way are probed once after the window, on its own programs: the
   analysis chain over its sources, and the VM and the cache simulator
   on one of its inputs. The VM with and without a ring, the serial
   drain and the sampled drain are never called from the benchmark's
   side (Tune.search runs its drains inside), so they are always
   probed. Returns the metrics and the probes' spans. *)
let ledger ctx w =
  let own = ctx.spans and probe = Spans.create ~enabled:true in
  let need l = Spans.count own l = 0 in
  ctx.spans <- probe;
  let serial = Fun.protect ~finally:(fun () -> ctx.spans <- own) (fun () -> probes ctx w ~need) in
  let src l = if need l then probe else own in
  let per_call l = Spans.self_ms (src l) l /. float_of_int (Spans.count (src l) l) in
  let rate metric l =
    m metric "Msteps/s" (float_of_int (Spans.work (src l) l) /. Spans.self_ms (src l) l /. 1000.0)
  in
  ( List.map (fun l -> m (l ^ "_ms") "ms" (per_call l)) analysis_layers
    @ [
        m "profile.collect_ms" "ms" (per_call "profile.collect");
        rate "profile.msteps_per_s" "profile.collect";
        m "profile.pmu_events" "count"
          (float_of_int (Spans.work (src "profile.collect") "profile.pmu_events"));
        rate "vm.plain_msteps_per_s" "vm.plain";
        rate "vm.push_msteps_per_s" "vm.push";
        rate "measure.msteps_per_s" "cachesim.measure";
        rate "measure.serial_msteps_per_s" "cachesim.measure_serial";
        rate "measure.sampled_msteps_per_s" "cachesim.measure_sampled";
        m "cachesim.drain_ns_per_access" "ns"
          ((Spans.self_ms probe "cachesim.measure_serial" -. Spans.self_ms probe "vm.push")
          *. 1e6 /. float_of_int (max 1 serial.m_accesses));
      ],
    probe )

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type gc_mark = { minor : int; major : int; words : float }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.minor_collections;
    major = s.major_collections;
    words = s.minor_words +. s.major_words -. s.promoted_words;
  }

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let run_window ctx w st ~seconds =
  let sg = Hashtbl.create 16 in
  let g0 = gc_mark () in
  let t0 = now_ns () in
  let win = w.window ctx st ~seconds sg in
  let wall_ms = ms_since t0 in
  let g1 = gc_mark () in
  let gc =
    [
      m "gc.minor_collections" "count" (float_of_int (g1.minor - g0.minor));
      m "gc.major_collections" "count" (float_of_int (g1.major - g0.major));
      m "gc.allocated_mb" "MB" (words_mb (g1.words -. g0.words));
    ]
  in
  (win, sg, wall_ms, gc)

let op_metrics ops =
  let all = ops.all in
  if Samples.count all = 0 then []
  else
    [
      m "op_ms.p50" "ms" (Samples.percentile all 50.0);
      m "op_ms.gm50" "ms" (gm50 ops);
      m "op_ms.p90" "ms" (Samples.percentile all 90.0);
      m "op_ms.p99" "ms" (Samples.percentile all 99.0);
      m "op_ms.mean" "ms" (Samples.mean all);
      m "op.count" "count" (float_of_int (Samples.count all));
    ]

let run_workload ctx w ~trace ~trace_file ~seconds =
  let k = max 1 (w.setup_count ctx.sizes) in
  let times = Array.make k 0.0 in
  let st = ref None in
  for i = 0 to k - 1 do
    Option.iter w.teardown !st;
    let t0 = now_ns () in
    st := Some (w.setup ctx);
    times.(i) <- ms_since t0 /. 1000.0
  done;
  let st = Option.get !st in
  let setup = m "setup_s" "s" (Samples.median times) in
  let measured =
    Fun.protect ~finally:(fun () -> w.teardown st) (fun () ->
        let untraced_s = if trace then seconds /. 2.0 else seconds in
        let win, sg, wall_ms, gc = run_window ctx w st ~seconds:untraced_s in
        Hashtbl.iter (fun k v -> Hashtbl.replace ctx.fp k v) sg;
        let heap =
          m "peak_heap_mb" "MB" (words_mb (float_of_int (Gc.quick_stat ()).top_heap_words))
        in
        let e2e =
          (setup :: heap :: op_metrics win.ops)
          @ [ m "wall_s" "s" (wall_ms /. 1000.0) ]
          @ gc @ win.extras
        in
        if not trace then e2e @ w.finish ctx st
        else begin
          ctx.spans <- Spans.create ~enabled:true;
          let twin, tsg, twall_ms, _ = run_window ctx w st ~seconds:(seconds /. 2.0) in
          Hashtbl.iter
            (fun k v ->
              match Hashtbl.find_opt sg k with
              | Some u when u <> v -> fail ctx "%s: untraced %s, traced %s" k u v
              | _ -> ())
            tsg;
          (* daemon request spans overlap one another on their own
             tracks; self time is a main-track notion *)
          let shares =
            List.filter_map
              (fun l ->
                if String.starts_with ~prefix:"server." l then None
                else
                  Some (m ("share." ^ l) "%" (100.0 *. Spans.self_ms ctx.spans l /. twall_ms)))
              (Spans.layers ctx.spans)
          in
          let mean (o : ops) = if Samples.count o.all = 0 then 0.0 else Samples.mean o.all in
          let overhead =
            m "trace.overhead_pct" "%"
              (if mean win.ops > 0.0 then 100.0 *. ((mean twin.ops /. mean win.ops) -. 1.0)
               else 0.0)
          in
          e2e @ w.finish ctx st @ shares @ [ overhead ]
        end)
  in
  if not trace then measured
  else begin
    (* probes run once the workload's state (the daemon) is gone *)
    let ledger, probe = ledger ctx w in
    Option.iter
      (fun file -> Spans.write_chrome [ ctx.spans; probe ] ~pid:(Unix.getpid ()) file)
      trace_file;
    measured @ ledger
  end

let run ~sizes ~seed ~seconds ~trace ~trace_file ~fingerprint name =
  let ctx =
    {
      sizes;
      rng = Random.State.make [| seed; Hashtbl.hash name |];
      lock = Mutex.create ();
      spans = Spans.create ~enabled:false;
      attempted = 0;
      failed = 0;
      errors = [];
      fp = Hashtbl.create 64;
    }
  in
  let go w = run_workload ctx w ~trace ~trace_file ~seconds in
  let metrics =
    match name with
    | "pbo-pipeline" -> go pbo
    | "static-advise" -> go static_advise
    | "daemon-advise" -> go daemon_advise
    | "tune-search" -> go tune_search_workload
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  let fp = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.fp []) in
  let drift =
    List.length
      (List.filter (fun (k, v) -> List.assoc_opt k fingerprint <> Some v) fp)
  in
  let attempted = max 1 ctx.attempted in
  {
    attempted;
    failed = ctx.failed;
    errors = List.rev ctx.errors;
    metrics =
      metrics
      @ [
          m "error_ratio" "ratio" (float_of_int ctx.failed /. float_of_int attempted);
          m "fingerprint_drift" "count" (float_of_int drift);
        ];
    fingerprint = fp;
  }
