(* slobench: the end-to-end and per-layer benchmark of slopt.

     slobench.exe [--seed N] [--seconds S] [--trace 0|1|FILE]
                  [--update-fingerprint] [--smoke]
       run every workload, each in a fresh child process of this
       executable, and write _artifacts/SLOBENCH.json
     slobench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
       run one workload in this process; the last line of standard
       output is one JSON object {correct, attempted, failed, metrics}
       holding the end-to-end metrics of BENCHMARK.json, or with tracing
       its per-layer metrics
     slobench.exe --compare A.json... -- B.json...
       compare two sets of results within the BENCHMARK.json bounds

   Run from the repository root: BENCHMARK.json and fingerprint.json
   are read from there. See README.md next to this file. *)

module Json = Slo_util.Json
module Wl = Workloads

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("slobench: " ^ msg);
      exit 2)
    fmt

let benchmark_file = "BENCHMARK.json"
let fingerprint_file = "bench/slobench/fingerprint.json"

let write_file path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | j -> j
  | exception (Sys_error msg | Json.Parse_error msg) -> die "%s: %s" path msg

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let str = function Some (Json.String s) -> Some s | _ -> None
let fields = function Some (Json.Obj kvs) -> kvs | _ -> []

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metric_json (m : Wl.metric) =
  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ])

let result_json (r : Wl.result) =
  Json.Obj
    [
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
      ("metrics", Json.Obj (List.map metric_json r.metrics));
      ("fingerprint", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.fingerprint));
    ]

let result_of_json j : Wl.result =
  let member k = Json.member k j in
  {
    attempted = int_of_float (Option.value ~default:0.0 (num (member "attempted")));
    failed = int_of_float (Option.value ~default:0.0 (num (member "failed")));
    errors =
      (match member "errors" with
      | Some (Json.List l) -> List.filter_map (fun e -> str (Some e)) l
      | _ -> []);
    metrics =
      List.filter_map
        (fun (name, v) ->
          match (num (Json.member "value" v), str (Json.member "unit" v)) with
          | Some value, Some unit_ -> Some { Wl.name; value; unit_ }
          | _ -> None)
        (fields (member "metrics"));
    fingerprint =
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (str (Some v)))
        (fields (member "fingerprint"));
  }

let artifact ~seed ~seconds ~trace workloads =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("workloads", Json.Obj (List.map (fun (w, r) -> (w, result_json r)) workloads));
    ]

let workloads_of_artifact path =
  List.map (fun (w, r) -> (w, result_of_json r)) (fields (Json.member "workloads" (read_json path)))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type spec = { s_name : string; s_unit : string; s_higher : bool; s_bound : float option }

let read_specs path key =
  if not (Sys.file_exists path) then []
  else
    List.filter_map
      (fun j ->
        match (str (Json.member "name" j), str (Json.member "unit" j)) with
        | Some s_name, Some s_unit ->
          Some
            {
              s_name;
              s_unit;
              s_higher = str (Json.member "better" j) = Some "higher";
              s_bound = num (Json.member "bound" j);
            }
        | _ -> None)
      (match Json.member key (read_json path) with Some (Json.List l) -> l | _ -> [])

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let print_result name (r : Wl.result) =
  Printf.printf "== %s: %d attempted, %d failed\n" name r.attempted r.failed;
  List.iter
    (fun (m : Wl.metric) -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_)
    r.metrics;
  List.iter (fun e -> Printf.printf "  FAILED %s\n" e) r.errors;
  flush stdout

(* the result line: exactly the metrics BENCHMARK.json lists for this
   mode, or every metric when there is no BENCHMARK.json to go by. Its
   values carry every digit (%.17g), where Json.to_string keeps six. *)
let result_line ~trace (r : Wl.result) =
  let specs = read_specs benchmark_file (if trace then "per_layer" else "end_to_end") in
  let chosen, missing =
    if specs = [] then (r.metrics, [])
    else
      List.fold_right
        (fun s (ok, miss) ->
          match List.find_opt (fun (m : Wl.metric) -> m.name = s.s_name) r.metrics with
          | Some m -> (m :: ok, miss)
          | None -> (ok, s.s_name :: miss))
        specs ([], [])
  in
  List.iter (fun n -> Printf.printf "  MISSING metric %s\n" n) missing;
  let quote s = Json.to_string (Json.String s) in
  let metric (m : Wl.metric) =
    if not (Float.is_finite m.value) then invalid_arg ("non-finite metric " ^ m.name);
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (quote m.name) m.value (quote m.unit_)
  in
  let ok = r.failed = 0 && missing = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok
    r.attempted r.failed
    (String.concat ", " (List.map metric chosen));
  ok

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

let compare_sets a_files b_files =
  let load files =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun (w, (r : Wl.result)) ->
            List.map (fun (m : Wl.metric) -> ((w, m.name), m.value)) r.metrics)
          (workloads_of_artifact f))
      files
  in
  let a = load a_files and b = load b_files in
  let specs =
    List.map (fun s -> (s, true)) (read_specs benchmark_file "end_to_end")
    @ List.map (fun s -> (s, false)) (read_specs benchmark_file "per_layer")
  in
  if specs = [] then die "no metrics in %s" benchmark_file;
  let workloads =
    List.sort_uniq compare (List.map (fun ((w, _), _) -> w) (a @ b))
  in
  let values set w n =
    Array.of_list (List.filter_map (fun ((w', n'), v) -> if w = w' && n = n' then Some v else None) set)
  in
  let quart xs =
    if Array.length xs >= 2 then Samples.quartiles xs
    else (xs.(0), xs.(0), xs.(0))
  in
  let spread (q1, med, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
  let agree = ref true in
  Printf.printf "%-14s %-30s %-34s %-34s %6s %s\n" "workload" "metric" "A median [q1, q3] spread"
    "B median [q1, q3] spread" "B won" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (s, e2e) ->
          let xa = values a w s.s_name and xb = values b w s.s_name in
          if Array.length xa > 0 && Array.length xb > 0 then begin
            let qa = quart xa and qb = quart xb in
            let (_, ma, _), (_, mb, _) = (qa, qb) in
            let better x y = if s.s_higher then x > y else x < y in
            let won = ref 0 in
            Array.iter (fun x -> Array.iter (fun y -> if better y x then incr won) xb) xa;
            let pairs = Array.length xa * Array.length xb in
            let worse =
              if ma = 0.0 then 0.0
              else (if s.s_higher then ma -. mb else mb -. ma) /. Float.abs ma
            in
            let verdict =
              match s.s_bound with
              | Some bound when e2e ->
                let wide q = spread q > bound in
                if worse > bound then "WORSE"
                else if wide qa || wide qb then "SPREAD"
                else "ok"
              | _ -> "-"
            in
            if verdict = "WORSE" || verdict = "SPREAD" then agree := false;
            let show (q1, med, q3) q = Printf.sprintf "%.5g [%.5g, %.5g] %.1f%%" med q1 q3 (100.0 *. spread q) in
            Printf.printf "%-14s %-30s %-34s %-34s %5.0f%% %s\n" w
              (s.s_name ^ " (" ^ s.s_unit ^ ")")
              (show qa qa) (show qb qb)
              (100.0 *. float_of_int !won /. float_of_int pairs)
              verdict
          end)
        specs)
    workloads;
  Printf.printf "%s\n"
    (if !agree then "AGREE: every end-to-end median and spread is within its bound"
     else "DISAGREE: see the WORSE / SPREAD rows");
  if !agree then 0 else 1

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string;  (* "0", "1" or a file *)
  mutable smoke : bool;
  mutable update_fp : bool;
}

let read_fingerprint path =
  if not (Sys.file_exists path) then []
  else
    List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (str (Some v)))
      (match read_json path with Json.Obj kvs -> kvs | _ -> [])

let detail_file name = Printf.sprintf "_artifacts/slobench-%s.json" name

let trace_file o ~default =
  match o.trace with "0" -> None | "1" -> Some default | f -> Some f

let single o name =
  if not (List.mem name Wl.names) then
    die "unknown workload %S (expected one of: %s)" name (String.concat ", " Wl.names);
  let trace_file =
    trace_file o ~default:(Printf.sprintf "_artifacts/slobench-%s.trace.json" name)
  in
  let r =
    Wl.run
      ~sizes:(if o.smoke then Wl.smoke else Wl.full)
      ~seed:o.seed ~seconds:o.seconds ~trace:(trace_file <> None) ~trace_file
      ~fingerprint:(read_fingerprint fingerprint_file) name
  in
  print_result name r;
  write_file (detail_file name)
    (Json.to_string (artifact ~seed:o.seed ~seconds:o.seconds ~trace:(trace_file <> None) [ (name, r) ]));
  if result_line ~trace:(trace_file <> None) r then 0 else 1

(* percentile edge cases, checked before a smoke run *)
let samples_self_test () =
  let of_list l =
    let s = Samples.create 1 in
    List.iter (Samples.add s) l;
    s
  in
  let one = of_list [ 7.0 ] in
  assert (Samples.percentile one 0.0 = 7.0);
  assert (Samples.percentile one 50.0 = 7.0);
  assert (Samples.percentile one 100.0 = 7.0);
  let s = of_list [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  assert (Samples.percentile s 0.0 = 1.0);
  assert (Samples.percentile s 20.0 = 1.0);
  assert (Samples.percentile s 21.0 = 2.0);
  assert (Samples.percentile s 50.0 = 3.0);
  assert (Samples.percentile s 100.0 = 5.0);
  let ties = of_list [ 2.0; 2.0; 2.0; 9.0 ] in
  assert (Samples.percentile ties 75.0 = 2.0);
  assert (Samples.percentile ties 76.0 = 9.0);
  assert (Samples.quartiles [| 1.0; 2.0; 3.0; 4.0 |] = (1.25, 2.5, 3.75));
  assert (Samples.quartiles [| 1.0; 2.0 |] = (0.75, 1.5, 2.25));
  assert (Samples.median [| 3.0; 1.0; 2.0 |] = 2.0);
  List.iter
    (fun f -> match f () with _ -> assert false | exception Invalid_argument _ -> ())
    [ (fun () -> Samples.percentile (Samples.create 4) 50.0);
      (fun () -> Samples.percentile one 100.5) ]

(* every metric BENCHMARK.json names, with its unit, and no failures *)
let smoke_check results =
  let specs = read_specs benchmark_file "end_to_end" @ read_specs benchmark_file "per_layer" in
  if specs = [] then die "no metrics in %s" benchmark_file;
  List.for_all
    (fun (w, (r : Wl.result)) ->
      let ok_metrics =
        List.for_all
          (fun s ->
            match List.find_opt (fun (m : Wl.metric) -> m.name = s.s_name) r.metrics with
            | Some m when m.unit_ = s.s_unit -> true
            | Some m ->
              Printf.printf "smoke: %s: %s has unit %s, not %s\n" w s.s_name m.unit_ s.s_unit;
              false
            | None ->
              Printf.printf "smoke: %s: metric %s missing\n" w s.s_name;
              false)
          specs
      in
      if r.failed > 0 then Printf.printf "smoke: %s: error_ratio is not 0\n" w;
      ok_metrics && r.failed = 0)
    results

let all o =
  if o.smoke then samples_self_test ();
  let trace = if o.smoke then "1" else o.trace in
  let exe = Sys.executable_name in
  let run_child name =
    let detail = detail_file name in
    let child_trace =
      if trace = "0" then "0" else Printf.sprintf "_artifacts/slobench-%s.trace.json" name
    in
    let args =
      [ exe; "--workload"; name; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; child_trace ]
      @ if o.smoke then [ "--smoke" ] else []
    in
    if Sys.file_exists detail then Sys.remove detail;
    flush stdout;
    let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WEXITED (0 | 1) -> ()
    | _ -> die "workload %s: child process did not finish" name);
    if not (Sys.file_exists detail) then die "workload %s wrote no result" name;
    (name, List.assoc name (workloads_of_artifact detail), child_trace)
  in
  let runs = List.map run_child Wl.names in
  let results = List.map (fun (n, r, _) -> (n, r)) runs in
  let shown =
    match read_specs benchmark_file "end_to_end" with
    | [] -> [ "setup_s"; "op_ms.gm50"; "peak_heap_mb" ]
    | specs -> List.map (fun s -> s.s_name) specs
  in
  Printf.printf "\n%-14s %9s %7s" "workload" "attempted" "failed";
  List.iter (Printf.printf " %13s") shown;
  print_newline ();
  List.iter
    (fun (n, (r : Wl.result)) ->
      Printf.printf "%-14s %9d %7d" n r.attempted r.failed;
      List.iter
        (fun k ->
          match List.find_opt (fun (m : Wl.metric) -> m.name = k) r.metrics with
          | Some m -> Printf.printf " %13.5g" m.value
          | None -> Printf.printf " %13s" "-")
        shown;
      print_newline ())
    results;
  let out = "_artifacts/SLOBENCH.json" in
  write_file out (Json.to_string (artifact ~seed:o.seed ~seconds:o.seconds ~trace:(trace <> "0") results));
  Printf.printf "wrote %s\n" out;
  (match trace_file { o with trace } ~default:"_artifacts/slobench.trace.json" with
  | Some file when not o.smoke ->
    Spans.merge_chrome ~into:file (List.map (fun (_, _, t) -> t) runs);
    Printf.printf "wrote %s\n" file
  | _ -> ());
  if o.update_fp then begin
    let fp = List.sort compare (List.concat_map (fun (_, (r : Wl.result)) -> r.fingerprint) results) in
    write_file fingerprint_file
      (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fp)) ^ "\n");
    Printf.printf "wrote %s (%d entries)\n" fingerprint_file (List.length fp)
  end;
  let failed = List.exists (fun (_, (r : Wl.result)) -> r.failed > 0) results in
  if o.smoke then if smoke_check results then 0 else 1
  else if failed then 1
  else 0

let usage () =
  die
    "usage: slobench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] \
     [--smoke] [--update-fingerprint] | --compare A.json... -- B.json..."

let () =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      trace = "0";
      smoke = false;
      update_fp = false;
    }
  in
  let int_arg f v = match int_of_string_opt v with Some n -> f n | None -> usage () in
  let rec parse = function
    | [] -> `Run
    | "--compare" :: rest -> (
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: r -> split (x :: acc) r
        | [] -> usage ()
      in
      match split [] rest with
      | [], _ | _, [] -> usage ()
      | a, b -> `Compare (a, b))
    | "--workload" :: v :: rest -> o.workload <- Some v; parse rest
    | "--seed" :: v :: rest -> int_arg (fun n -> o.seed <- n) v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> o.seconds <- s
      | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest -> o.trace <- v; parse rest
    | "--smoke" :: rest -> o.smoke <- true; parse rest
    | "--update-fingerprint" :: rest -> o.update_fp <- true; parse rest
    | _ -> usage ()
  in
  let code =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | `Compare (a, b) -> compare_sets a b
    | `Run -> (
      (* results, traces and the daemon's socket go here *)
      if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
      if o.smoke then o.seconds <- Float.min o.seconds 1.0;
      match o.workload with Some w -> single o w | None -> all o)
  in
  exit code
