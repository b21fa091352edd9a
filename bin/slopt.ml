(* slopt — the structure layout optimizer command-line tool.

   A file-based front door to the library, in the spirit of the paper's
   "-ipo" flow plus the advisory option:

     slopt parse file.mc           dump the IR
     slopt analyze file.mc         legality + attributes per record type
     slopt profile file.mc -o f.fb collect a feedback file (instrumented run)
     slopt advise file.mc -p f.fb  annotated type layouts (the advisor)
     slopt check file.mc           source-located layout diagnostics
     slopt transform file.mc       plan + apply layout transformations
     slopt run file.mc             execute under the cache simulator
     slopt bench file.mc           original vs transformed comparison
     slopt tune file.mc            search the plan space with the simulator
     slopt serve --socket S        the advice daemon
     slopt client CMD --socket S   talk to it *)

open Cmdliner

module D = Slo_core.Driver
module L = Slo_core.Legality
module H = Slo_core.Heuristics
module Adv = Slo_core.Advisor
module Codec = Slo_core.Codec
module Tune = Slo_tune.Tune
module W = Slo_profile.Weights
module Advice = Slo_advice.Advice
module Sarif = Slo_advice.Sarif

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* after whatever the command already printed *)
let die ?(code = 1) msg =
  flush stdout;
  prerr_endline msg;
  exit code

(* runs a command's pipeline; a failing stage is reported against [file]
   and exits 1 *)
let guarded file f =
  match D.guard f with
  | Ok v -> v
  | Error e -> die (D.render_error ~file e)

let load ?verify path = D.compile ?verify (read_file path)

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the IR well-formedness verifier on the lowered program \
                 (and, for transform/bench, on the rewritten program); exit \
                 non-zero with a structured report on any violation.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Mini-C source file.")

let args_arg =
  Arg.(value & opt (list int) [] & info [ "args" ] ~docv:"INTS"
         ~doc:"Integer arguments passed to main().")

let scheme_conv = Arg.enum Codec.scheme_assoc

let scheme_arg =
  Arg.(value & opt scheme_conv W.ISPBO
       & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Weighting scheme (pbo, spbo, ispbo, ...). Without \
                 --profile, a profile-based scheme collects a training \
                 profile on --args (no arguments for advise and \
                 transform).")

let profile_arg =
  Arg.(value & opt (some file) None & info [ "profile"; "p" ] ~docv:"FB"
         ~doc:"Feedback file from 'slopt profile'.")

(* the scheme and feedback a decision runs under, given the run's args
   and program: --profile selects PBO on that file; without it the
   Driver's feedback rule applies *)
let weighting_term =
  let resolve profile scheme ~args prog =
    match profile with
    | Some path ->
      (W.PBO, Some (Slo_profile.Feedback.of_string (read_file path)))
    | None -> (scheme, D.feedback_for ~args prog ~scheme)
  in
  Term.(const resolve $ profile_arg $ scheme_arg)

let fidelity_conv =
  let parse s =
    match Slo_cachesim.Sampled.fidelity_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f =
    Format.pp_print_string ppf (Slo_cachesim.Sampled.fidelity_name f)
  in
  Arg.conv (parse, print)

let fidelity_arg =
  Arg.(value & opt fidelity_conv Slo_cachesim.Sampled.Exact
       & info [ "fidelity" ] ~docv:"FIDELITY"
           ~doc:"Cache-simulation fidelity: $(b,exact) (every access \
                 simulated; default), $(b,sampled) (detailed windows, the \
                 rest warms cache state without counter work; bounded \
                 counter error), or $(b,sampled:WINDOW,STRIDE) to choose \
                 the window geometry. Program output, exit code and step \
                 counts are exact in every fidelity.")

let pool_arg =
  Arg.(value & flag
       & info [ "pool" ]
           ~doc:"Enable pooling plans: shape-proven recursive types \
                 (single allocation site, unaliased link fields) are \
                 rewritten to packed index-linked pools. Off by default; \
                 pool decisions take precedence over split/peel/rebuild \
                 for qualifying types.")

let parse_cmd =
  let run file verify =
    guarded file (fun () ->
        print_string (Ir.string_of_program (load ~verify file)))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Compile and dump the IR")
    Term.(const run $ file_arg $ verify_arg)

let analyze_cmd =
  let run file =
    let prog = guarded file (fun () -> load file) in
    let leg = L.analyze prog in
    let pts = Slo_pointsto.Pointsto.analyze prog in
    List.iter
      (fun typ ->
        let info = L.info leg typ in
        Printf.printf "%-20s %-8s reasons=[%s]%s\n" typ
          (if L.is_legal leg typ then "LEGAL"
           else if
             L.is_legal ~relax:true leg typ
             && Slo_pointsto.Pointsto.refutable pts typ
           then "PTS-TO"
           else if L.is_legal ~relax:true leg typ then "RELAX"
           else "INVALID")
          (String.concat "," (List.map L.reason_name info.invalid))
          (if info.attrs.dyn_alloc then " [dyn-alloc]" else ""))
      (L.types leg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Legality analysis per record type (strict / points-to / relaxed)")
    Term.(const run $ file_arg)

let profile_cmd =
  let out_arg =
    Arg.(value & opt string "out.fb" & info [ "o" ] ~docv:"OUT"
           ~doc:"Output feedback file.")
  in
  let run file args out =
    let fb, stats =
      guarded file (fun () -> Slo_profile.Collect.collect ~args (load file))
    in
    write_file out (Slo_profile.Feedback.to_string fb);
    Printf.printf
      "instrumented run: exit=%d, %d steps, %d PMU miss events -> %s\n"
      stats.result.exit_code stats.result.steps stats.pmu_events out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"PBO collection: run instrumented, write a feedback file")
    Term.(const run $ file_arg $ args_arg $ out_arg)

let advise_cmd =
  let run file weighting pool =
    guarded file (fun () ->
        let prog = load file in
        let scheme, feedback = weighting ~args:[] prog in
        print_string (Adv.report (D.advise ~pool prog ~scheme ~feedback)))
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Print annotated type layouts (the paper's advisory tool)")
    Term.(const run $ file_arg $ weighting_term $ pool_arg)

let transform_cmd =
  let dump_arg =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Dump the transformed IR.")
  in
  let run file weighting pool dump verify =
    guarded file (fun () ->
        let prog = load ~verify file in
        let scheme, feedback = weighting ~args:[] prog in
        let { D.decisions; _ } = D.decide ~pool prog ~scheme ~feedback in
        List.iter
          (fun (d : H.decision) ->
            Printf.printf "%-20s %s\n" d.d_typ
              (match d.d_plan with
              | Some p -> H.plan_summary p
              | None -> "unchanged (" ^ String.concat "; " d.d_notes ^ ")"))
          decisions;
        let transformed =
          D.transform_with_plans ~verify prog (H.plans decisions)
        in
        if dump then print_string (Ir.string_of_program transformed))
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Decide and apply layout transformations")
    Term.(const run $ file_arg $ weighting_term $ pool_arg $ dump_arg
          $ verify_arg)

let run_cmd =
  let run file args fidelity =
    let m = guarded file (fun () -> D.measure ~args ~fidelity (load file)) in
    print_string m.m_result.output;
    Printf.printf
      "exit=%d steps=%d cycles=%d l1miss=%d l2miss=%d accesses=%d\n"
      m.m_result.exit_code m.m_result.steps m.m_cycles m.m_l1_misses
      m.m_l2_misses m.m_accesses
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute under the Itanium-like cache simulator")
    Term.(const run $ file_arg $ args_arg $ fidelity_arg)

let bench_cmd =
  let run file args weighting pool verify fidelity =
    let ev =
      guarded file (fun () ->
          let prog = load ~verify file in
          let scheme, feedback = weighting ~args prog in
          D.evaluate ~args ~pool ~verify ~fidelity ~scheme ~feedback prog)
    in
    List.iter
      (fun p -> Printf.printf "plan: %s\n" (H.plan_summary p))
      (H.plans ev.e_decisions);
    Printf.printf "before: %d cycles\nafter : %d cycles\nspeedup: %+.1f%%\n"
      ev.e_before.m_cycles ev.e_after.m_cycles ev.e_speedup_pct;
    if ev.e_before.m_result.output <> ev.e_after.m_result.output then
      die "ERROR: transformed program output differs!"
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Measure original vs transformed program")
    Term.(const run $ file_arg $ args_arg $ weighting_term $ pool_arg
          $ verify_arg $ fidelity_arg)

(* ------------------------------------------------------------------ *)
(* tune: search the plan space with the cachesim as cost oracle        *)
(* ------------------------------------------------------------------ *)

let budget_arg =
  Arg.(value & opt (some float) None
       & info [ "budget-ms" ] ~docv:"MS"
           ~doc:"Anytime search budget: on expiry the best plan scored so \
                 far is reported (the heuristic incumbent at minimum). \
                 Default: run the whole candidate space.")

let beam_arg =
  Arg.(value & opt int 4
       & info [ "beam" ] ~docv:"N"
           ~doc:"Field-permutation beam per struct: how many hot-field \
                 orders are considered per split point and rebuild.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains that score candidates: the size of the \
                 search pool. With $(docv) = 1 one worker scores them \
                 in turn, and their measure runs drain on a spare core \
                 when one is free.")

let seed_arg =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the deterministic candidate shuffle; results are \
                 reproducible for a given seed at any --jobs.")

let tune_fidelity_arg =
  Arg.(value & opt fidelity_conv Slo_cachesim.Sampled.sampled_default
       & info [ "fidelity" ] ~docv:"FIDELITY"
           ~doc:"Search-phase fidelity (default $(b,sampled)); the winner \
                 is always re-scored at $(b,exact) fidelity before it may \
                 replace the heuristic plan.")

let print_verdict improved ~heuristic ~found =
  if improved then
    Printf.printf "improvement over heuristic: %+.1f%%\n"
      ((float_of_int heuristic /. float_of_int found -. 1.0) *. 100.0)
  else print_endline "no plan beat the heuristic; keeping it"

let print_plans ~label plans cycles baseline =
  Printf.printf "%s: %d cycles (%+.1f%% vs baseline)\n" label cycles
    (if cycles > 0 then
       (float_of_int baseline /. float_of_int cycles -. 1.0) *. 100.0
     else 0.0);
  if plans = [] then print_endline "  (no transformation)"
  else
    List.iter
      (fun p ->
        Printf.printf "  plan: %-40s %s\n" (Codec.plan_to_string p)
          (H.plan_summary p))
      plans

let tune_cmd =
  let run file args weighting jobs fidelity budget beam seed =
    if jobs < 1 || beam < 1 then
      die ~code:2 "ERROR: --jobs and --beam must be >= 1";
    let r =
      guarded file (fun () ->
          let prog = load ~verify:true file in
          let scheme, feedback = weighting ~args prog in
          Tune.search prog
            { (Tune.default_config ~scheme ~feedback) with
              Tune.args; jobs; fidelity; budget_ms = budget; beam; seed })
    in
    print_plans ~label:"heuristic" r.Tune.t_heuristic r.t_heuristic_cycles
      r.t_baseline_cycles;
    print_plans ~label:"found    " r.t_found r.t_found_cycles
      r.t_baseline_cycles;
    Printf.printf "explored %d/%d candidates (%d rejected)%s in %.0fms\n"
      r.t_explored r.t_total r.t_rejected
      (if r.t_complete then "" else " [budget expired]")
      r.t_wall_ms;
    print_verdict r.t_improved ~heuristic:r.t_heuristic_cycles
      ~found:r.t_found_cycles
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search the layout-plan space (split points x field orders x \
             peel x padding) with the cache simulator as cost oracle. \
             Anytime: --budget-ms bounds \
             the search and the best plan so far wins; the result is \
             never worse than the heuristic plan, which is always scored \
             as the incumbent.")
    Term.(const run $ file_arg $ args_arg $ weighting_term $ jobs_arg
          $ tune_fidelity_arg $ budget_arg $ beam_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* check: source-located diagnostics and SARIF export                  *)
(* ------------------------------------------------------------------ *)

let relax_arg =
  Arg.(value & flag
       & info [ "relax" ]
           ~doc:"Tolerate CSTT/CSTF/ATKN findings (the paper's relaxed \
                 counting): they are reported as warnings and no longer \
                 invalidate — unless points-to refutes the relaxation, in \
                 which case the PTS finding invalidates instead.")

let sarif_arg =
  Arg.(value & opt (some string) None
       & info [ "sarif" ] ~docv:"OUT"
           ~doc:"Also write the findings as a SARIF 2.1.0 document to \
                 $(docv) (all inputs merged into one run).")

let check_files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Mini-C source files to check.")

let check_names_arg =
  Arg.(value & opt_all string []
       & info [ "name" ] ~docv:"BENCH"
           ~doc:"Also check a benchmark-roster program (repeatable).")

let roster_arg =
  Arg.(value & flag
       & info [ "roster" ]
           ~doc:"Check every benchmark-roster program (equivalent to one \
                 --name per roster entry).")

let golden_arg =
  Arg.(value & opt (some file) None
       & info [ "golden" ] ~docv:"LIST"
           ~doc:"Compare the finding summary against the golden list in \
                 $(docv): exit non-zero only on findings absent from the \
                 list (CI mode), instead of on any invalidating finding. \
                 Lines starting with '#' and blank lines are ignored.")

let read_golden path =
  String.split_on_char '\n' (read_file path)
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))

let check_cmd =
  let run files names roster relax sarif_out golden =
    let names =
      if roster then
        names
        @ List.map
            (fun (e : Slo_suite.Suite.entry) -> e.name)
            Slo_suite.Suite.roster
      else names
    in
    if files = [] && names = [] then
      die ~code:2 "ERROR: need at least one FILE or --name";
    let inputs =
      List.map (fun f -> (f, read_file f)) files
      @ List.map
          (fun n ->
            match Slo_suite.Suite.find n with
            | e -> (n, e.Slo_suite.Suite.source)
            | exception Not_found ->
              die ~code:2 (Printf.sprintf "ERROR: unknown roster entry %S" n))
          names
    in
    let results =
      List.map
        (fun (display, src) ->
          let prog = guarded display (fun () -> D.compile ~verify:true src) in
          (* diagnostics must be able to point at sources *)
          (match Verify.program ~require_locs:true prog with
          | [] -> ()
          | errs ->
            die
              (Printf.sprintf "%s: missing source locations:\n%s" display
                 (Verify.report errs)));
          (display, src, Advice.check ~relax prog))
        inputs
    in
    List.iter
      (fun (display, src, diags) ->
        print_string (Advice.render ~src ~file:display diags))
      results;
    (match sarif_out with
    | None -> ()
    | Some out ->
      write_file out
        (Sarif.to_string (List.map (fun (d, _, ds) -> (d, ds)) results));
      Printf.eprintf "wrote %s\n" out);
    let summary_lines =
      List.concat_map
        (fun (display, _, diags) ->
          List.map
            (fun l -> Printf.sprintf "%s: %s" display l)
            (Advice.summary diags))
        results
    in
    match golden with
    | Some path ->
      let expected = read_golden path in
      let unexpected =
        List.filter (fun l -> not (List.mem l expected)) summary_lines
      in
      let resolved =
        List.filter (fun l -> not (List.mem l summary_lines)) expected
      in
      List.iter
        (fun l -> Printf.eprintf "resolved (remove from %s): %s\n" path l)
        resolved;
      if unexpected <> [] then begin
        List.iter
          (fun l -> Printf.eprintf "NEW finding (not in %s): %s\n" path l)
          unexpected;
        exit 1
      end
    | None ->
      let n =
        List.fold_left
          (fun acc (_, _, ds) -> acc + Advice.invalidating_count ds)
          0 results
      in
      if n > 0 then die (Printf.sprintf "%d invalidating finding(s)" n)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Source-located layout diagnostics: legality witnesses, \
             points-to provenance and dead-field findings rendered as \
             compiler-style $(i,file:line:col) messages with caret \
             snippets; optional SARIF 2.1.0 export. Exits non-zero when \
             any finding invalidates transformation (or, with --golden, \
             on findings absent from the golden list).")
    Term.(const run $ check_files_arg $ check_names_arg $ roster_arg
          $ relax_arg $ sarif_arg $ golden_arg)

(* ------------------------------------------------------------------ *)
(* Serving mode: the advice daemon and its client                      *)
(* ------------------------------------------------------------------ *)

module Srv = Slo_server.Server
module Cli = Slo_server.Client
module Proto = Slo_server.Protocol

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"ENDPOINT"
           ~doc:"Daemon endpoint: a Unix-domain socket path, or \
                 $(i,HOST:PORT) (numeric port, no '/') for TCP.")

let serve_socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path the daemon listens on (TCP is \
                 added with --listen).")

let serve_cmd =
  let serve_jobs =
    Arg.(value & opt int 0
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for the compute pool (0 = one per \
                   available core).")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Also listen on TCP at $(docv) (e.g. 127.0.0.1:7070; \
                   host $(b,*) binds all interfaces). The Unix socket \
                   stays on either way.")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"N"
             ~doc:"Accept/reader domains per listener (0 = auto from the \
                   core count): connections accepted by different shards \
                   parse frames in parallel.")
  in
  let window =
    Arg.(value & opt int 32
         & info [ "window" ] ~docv:"N"
             ~doc:"Per-connection in-flight request cap; a pipelining \
                   client beyond it is back-pressured by the socket.")
  in
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"LRU budget for finished replies, in MiB.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent reply cache under $(docv): results survive \
                   restarts (write-temp-then-rename records, verified on \
                   load). Off by default.")
  in
  let max_conns =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent connections before new ones are refused with \
                   an $(i,overloaded) reply.")
  in
  let high_watermark =
    Arg.(value & opt int 0
         & info [ "high-watermark" ] ~docv:"N"
             ~doc:"Queued compute jobs at which $(i,bench) misses start \
                   being shed with $(i,overloaded) (0 = auto: \
                   max(8, 4*jobs)). Cached replies are always served.")
  in
  let low_watermark =
    Arg.(value & opt int 0
         & info [ "low-watermark" ] ~docv:"N"
             ~doc:"Backlog at which shedding stops again (0 = auto: half \
                   the high watermark).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Suppress progress lines on stderr.")
  in
  let run socket jobs listen shards window cache_mb cache_dir max_conns
      high_watermark low_watermark quiet =
    let jobs = if jobs = 0 then Slo_exec.Pool.default_jobs () else jobs in
    if jobs < 1 || cache_mb < 1 || max_conns < 1 || window < 1 then
      die ~code:2
        "ERROR: --jobs, --cache-mb, --max-conns and --window must be >= 1";
    let listen =
      match listen with
      | None -> None
      | Some spec -> (
        match Cli.endpoint_of_string spec with
        | `Tcp (host, port) -> Some (host, port)
        | `Unix _ ->
          die ~code:2 "ERROR: --listen needs HOST:PORT with a numeric port")
    in
    let defaults = Srv.default_config ~socket_path:socket in
    let shards = if shards = 0 then defaults.Srv.shards else shards in
    let log s = if not quiet then Printf.eprintf "slopt-serve: %s\n%!" s in
    Srv.run
      { defaults with
        jobs; listen; shards; window; cache_mb; cache_dir; max_conns;
        high_watermark; low_watermark; log }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the layout-advice daemon (length-prefixed JSON over a Unix \
             socket and optionally TCP; pipelined advise/bench/check/stats/\
             shutdown requests with out-of-order replies; content-addressed \
             in-memory and on-disk caching; admission control; graceful \
             drain on SIGTERM)")
    Term.(const run $ serve_socket_arg $ serve_jobs $ listen $ shards
          $ window $ cache_mb $ cache_dir $ max_conns $ high_watermark
          $ low_watermark $ quiet)

let wait_arg =
  Arg.(value & opt float 5.0
       & info [ "wait" ] ~docv:"SECS"
           ~doc:"Retry the connection for up to $(docv) seconds while the \
                 daemon starts up (0 fails immediately).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline; on expiry the daemon answers a \
                 structured $(i,timeout) error while the computation \
                 continues server-side and populates the cache.")

let src_file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Mini-C source file to send inline.")

let name_arg =
  Arg.(value & opt (some string) None
       & info [ "name" ] ~docv:"BENCH"
           ~doc:"Use a benchmark-roster program (e.g. $(b,179.art)) as the \
                 source instead of a file.")

(* resolves the source text plus the args to run it with: an explicit
   --args wins; a --name roster entry falls back to its train args *)
let resolve_src file name args =
  match (file, name) with
  | Some f, None -> (read_file f, Option.value ~default:[] args)
  | None, Some n -> (
    match Slo_suite.Suite.find n with
    | e ->
      ( e.Slo_suite.Suite.source,
        Option.value ~default:e.Slo_suite.Suite.train_args args )
    | exception Not_found -> die (Printf.sprintf "unknown roster entry %S" n))
  | None, None -> die "need a FILE argument or --name"
  | Some _, Some _ -> die "FILE and --name are mutually exclusive"

let client_args_arg =
  Arg.(value & opt (some (list int)) None
       & info [ "args" ] ~docv:"INTS"
           ~doc:"Integer arguments passed to main() server-side (default: \
                 the roster entry's train args with --name, else none).")

(* one request on a fresh connection; an error reply exits 3 *)
let rpc socket wait req =
  match
    Cli.connect ~retry_for_s:wait ~endpoint:(Cli.endpoint_of_string socket) ()
  with
  | exception Unix.Unix_error (e, _, _) ->
    die
      (Printf.sprintf "ERROR: cannot connect to %s: %s" socket
         (Unix.error_message e))
  | conn ->
    Fun.protect ~finally:(fun () -> Cli.close conn) (fun () ->
        match Cli.rpc conn req with
        | Proto.R_error { code; message } ->
          Printf.eprintf "ERROR [%s]: %s\n" (Proto.error_code_name code)
            message;
          exit 3
        | reply -> reply)

let unexpected () =
  prerr_endline "ERROR: unexpected reply kind";
  exit 3

let scheme_name_arg =
  Arg.(value & opt (some string) None
       & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Weighting scheme (pbo, spbo, ispbo, ...); profile-based \
                 schemes make the daemon collect a training profile with \
                 --args. Default ispbo.")

let client_advise_cmd =
  let run socket wait file name scheme args pool deadline =
    let src, args = resolve_src file name args in
    match
      rpc socket wait
        (Proto.Advise { src; scheme; args; pool; deadline_ms = deadline })
    with
    | Proto.R_advise { a_report; a_cached } ->
      if a_cached then prerr_endline "(served from cache)";
      print_string a_report
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Request an annotated-layout report")
    Term.(const run $ socket_arg $ wait_arg $ src_file_arg $ name_arg
          $ scheme_name_arg $ client_args_arg $ pool_arg $ deadline_arg)

let client_bench_cmd =
  let run socket wait file name scheme args pool deadline =
    let src, args = resolve_src file name args in
    match
      rpc socket wait
        (Proto.Bench { src; scheme; args; pool; deadline_ms = deadline })
    with
    | Proto.R_bench b ->
      if b.b_cached then prerr_endline "(served from cache)";
      List.iter (fun p -> Printf.printf "plan: %s\n" p) b.b_plans;
      Printf.printf "before: %d cycles\nafter : %d cycles\nspeedup: %+.1f%%\n"
        b.b_cycles_before b.b_cycles_after b.b_speedup_pct
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Request a before/after measurement")
    Term.(const run $ socket_arg $ wait_arg $ src_file_arg $ name_arg
          $ scheme_name_arg $ client_args_arg $ pool_arg $ deadline_arg)

(* the daemon labels wire-shipped sources "<input>"; give the lines the
   real name when the client knows one *)
let relabel ~display s =
  let pat = "<input>" in
  let buf = Buffer.create (String.length s) in
  let n = String.length s and m = String.length pat in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = pat then begin
      Buffer.add_string buf display;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let client_check_cmd =
  let run socket wait file name relax sarif_out deadline =
    let src, _ = resolve_src file name None in
    let display =
      match (file, name) with
      | Some f, _ -> f
      | _, Some n -> n
      | None, None -> assert false (* resolve_src rejected this *)
    in
    match
      rpc socket wait (Proto.Check { src; relax; deadline_ms = deadline })
    with
    | Proto.R_check { c_report; c_sarif; c_invalidating; c_cached } ->
      if c_cached then prerr_endline "(served from cache)";
      print_string (relabel ~display c_report);
      (match sarif_out with
      | None -> ()
      | Some out ->
        write_file out (relabel ~display c_sarif);
        Printf.eprintf "wrote %s\n" out);
      if c_invalidating > 0 then
        die (Printf.sprintf "%d invalidating finding(s)" c_invalidating)
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Request source-located layout diagnostics (and optionally \
             SARIF) from the daemon; exits non-zero when any finding \
             invalidates transformation")
    Term.(const run $ socket_arg $ wait_arg $ src_file_arg $ name_arg
          $ relax_arg $ sarif_arg $ deadline_arg)

let client_tune_cmd =
  let client_beam_arg =
    Arg.(value & opt (some int) None
         & info [ "beam" ] ~docv:"N"
             ~doc:"Field-permutation beam (default: the server's).")
  in
  let client_budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Anytime search budget, enforced inside the server-side \
                   search: a tight budget returns the best plan found so \
                   far ($(i,complete: false)), never a $(i,timeout) error.")
  in
  let run socket wait file name scheme args beam budget =
    let src, args = resolve_src file name args in
    match
      rpc socket wait
        (Proto.Tune { src; scheme; args; beam; deadline_ms = budget })
    with
    | Proto.R_tune t ->
      if t.t_cached then prerr_endline "(served from cache)";
      let print_side label plans cycles =
        Printf.printf "%s: %d cycles\n" label cycles;
        if plans = [] then print_endline "  (no transformation)"
        else List.iter (fun p -> Printf.printf "  plan: %s\n" p) plans
      in
      Printf.printf "baseline : %d cycles\n" t.t_baseline_cycles;
      print_side "heuristic" t.t_heuristic_plans t.t_heuristic_cycles;
      print_side "found    " t.t_plans t.t_found_cycles;
      Printf.printf "explored %d/%d candidates%s\n" t.t_explored t.t_total
        (if t.t_complete then "" else " [budget expired]");
      print_verdict t.t_improved ~heuristic:t.t_heuristic_cycles
        ~found:t.t_found_cycles
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Request an anytime layout-plan search; the reply always \
             carries a plan at least as good as the heuristic one")
    Term.(const run $ socket_arg $ wait_arg $ src_file_arg $ name_arg
          $ scheme_name_arg $ client_args_arg $ client_beam_arg
          $ client_budget_arg)

let client_stats_cmd =
  let run socket wait =
    match rpc socket wait Proto.Stats with
    | Proto.R_stats s ->
      let counts kvs =
        if kvs = [] then "-"
        else
          String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
      in
      let rate h m =
        if h + m = 0 then "-"
        else Printf.sprintf "%.1f%%" (100.0 *. float h /. float (h + m))
      in
      Printf.printf
        "uptime: %.1fs  conns: %d  inflight: %d  queued: %d%s\n" s.s_uptime_s
        s.s_conns s.s_inflight s.s_queued
        (if s.s_shedding then "  SHEDDING" else "");
      Printf.printf "requests: %s\n" (counts s.s_requests);
      Printf.printf "errors: %s\n" (counts s.s_errors);
      Printf.printf
        "cache: result %d/%d hits (%s), compiles %d, disk %d/%d hits (%s), \
         %d entries, %d bytes, %d evictions\n"
        s.s_result_hits
        (s.s_result_hits + s.s_result_misses)
        (rate s.s_result_hits s.s_result_misses)
        s.s_ir_misses
        s.s_disk_hits
        (s.s_disk_hits + s.s_disk_misses)
        (rate s.s_disk_hits s.s_disk_misses)
        s.s_cache_entries s.s_cache_bytes s.s_cache_evictions;
      Printf.printf "latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms \
                     (n=%d)\n"
        s.s_latency.l_p50_ms s.s_latency.l_p95_ms s.s_latency.l_p99_ms
        s.s_latency.l_max_ms s.s_latency.l_count
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Request per-kind counters, cache hit rates and latency \
             percentiles")
    Term.(const run $ socket_arg $ wait_arg)

let client_shutdown_cmd =
  let run socket wait =
    match rpc socket wait Proto.Shutdown with
    | Proto.R_shutdown -> print_endline "daemon is draining"
    | _ -> unexpected ()
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask the daemon to drain: in-flight requests finish, new work \
             is refused, then the process exits")
    Term.(const run $ socket_arg $ wait_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running layout-advice daemon")
    [ client_advise_cmd; client_bench_cmd; client_check_cmd; client_tune_cmd;
      client_stats_cmd; client_shutdown_cmd ]

let () =
  let doc = "structure layout optimization framework (CGO'06 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "slopt" ~doc)
          [ parse_cmd; analyze_cmd; profile_cmd; advise_cmd; check_cmd;
            transform_cmd; run_cmd; bench_cmd; tune_cmd; serve_cmd;
            client_cmd ]))
