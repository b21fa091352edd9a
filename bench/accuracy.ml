(* The accuracy gate for sampled cache simulation.

   Usage:
     dune exec bench/accuracy.exe -- [--jobs N] [--only NAME]
       [--fidelity sampled[:W,S]] [--out FILE]

   Runs the roster's table3 measurements twice on the compiled engine —
   exact fidelity, then the production fast path (sampled fidelity) —
   pairs up the rows and enforces the bounds
   the sampled estimators are sold with:

   - execution is exact in every fidelity: steps, accesses and error
     status must be identical;
   - per row and per side (before/after the transformation), the
     estimated L1 miss rate must be within 0.5 percentage points of the
     exact rate, L2 within 1.0pp;
   - the measured speedup must agree in sign (|speedup| below 0.1%
     counts as zero, and a zero only conflicts with a value clearing
     twice that band) — the decision the measurement feeds must not
     flip.

   The per-row report is written to _artifacts/ACCURACY.json (schema
   below) so CI keeps an accuracy trajectory next to BENCH.json's perf
   trajectory. Exits 1 when any bound is exceeded, 2 on usage errors.

   This is the real-size face of the tier-1 roster accuracy tests in
   test/test_sampled.ml (which run scaled-down windows on tiny args). *)

module Engine = Slo_bench.Engine
module Suite = Slo_suite.Suite
module Sampled = Slo_cachesim.Sampled
module Backend = Slo_vm.Backend
module Json = Slo_util.Json
open Slo_bench.Accuracy_rule

let say fmt = Printf.printf (fmt ^^ "\n%!")
let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let usage () =
  die
    "usage: accuracy.exe [--jobs N|-j N] [--only NAME]\n\
     \       [--fidelity sampled|sampled:W,S] [--out FILE]"

(* ---------------- row pairing and checks ---------------- *)

let row_label (r : Engine.record) =
  Printf.sprintf "%s/%s [%s]" r.r_experiment r.r_benchmark
    (Option.value ~default:"-" r.r_scheme)

let miss_rate_pct ~misses ~accesses =
  if accesses <= 0 then 0.0
  else 100.0 *. float_of_int misses /. float_of_int accesses

type side_delta = { d_l1_pp : float; d_l2_pp : float }

(* miss-rate deltas of one side (before or after) of a row pair; [sel]
   picks the side out of the (before, after) counter pairs *)
let side_delta sel (x : Engine.record) (s : Engine.record) =
  match (x.r_l1_misses, x.r_l2_misses, x.r_accesses,
         s.r_l1_misses, s.r_l2_misses, s.r_accesses)
  with
  | Some xl1, Some xl2, Some xacc, Some sl1, Some sl2, Some sacc ->
    let rate m a = miss_rate_pct ~misses:(sel m) ~accesses:(sel a) in
    Some
      {
        d_l1_pp = Float.abs (rate xl1 xacc -. rate sl1 sacc);
        d_l2_pp = Float.abs (rate xl2 xacc -. rate sl2 sacc);
      }
  | _ -> None

type row_report = {
  rr_label : string;
  rr_before : side_delta option;
  rr_after : side_delta option;
  rr_speedup_exact : float option;
  rr_speedup_sampled : float option;
  rr_violations : string list;
}

let check_pair (x : Engine.record) (s : Engine.record) =
  let violations = ref [] in
  let bad fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let label = row_label x in
  if not (String.equal label (row_label s)) then
    bad "row order differs: %s vs %s" label (row_label s);
  (* execution-exact fields *)
  if x.r_error <> s.r_error then bad "%s: error status differs" label;
  if x.r_steps <> s.r_steps then bad "%s: steps differ between fidelities" label;
  if x.r_accesses <> s.r_accesses then
    bad "%s: access counts differ between fidelities" label;
  let before = side_delta fst x s and after = side_delta snd x s in
  let check side = function
    | None -> ()
    | Some d ->
      if d.d_l1_pp > l1_bound_pp then
        bad "%s %s: L1 miss-rate delta %.3fpp exceeds %.1fpp" label side
          d.d_l1_pp l1_bound_pp;
      if d.d_l2_pp > l2_bound_pp then
        bad "%s %s: L2 miss-rate delta %.3fpp exceeds %.1fpp" label side
          d.d_l2_pp l2_bound_pp
  in
  check "before" before;
  check "after" after;
  (match (x.r_speedup_pct, s.r_speedup_pct) with
  | Some a, Some b when sign_flip a b ->
    bad "%s: speedup sign flips (%+.3f%% exact vs %+.3f%% sampled)" label a b
  | _ -> ());
  {
    rr_label = label;
    rr_before = before;
    rr_after = after;
    rr_speedup_exact = x.r_speedup_pct;
    rr_speedup_sampled = s.r_speedup_pct;
    rr_violations = List.rev !violations;
  }

(* ---------------- the artifact ---------------- *)

let json_of_report (r : row_report) =
  let fdelta = function
    | None -> [ ("l1_delta_pp", Json.Null); ("l2_delta_pp", Json.Null) ]
    | Some d ->
      [ ("l1_delta_pp", Json.Float d.d_l1_pp);
        ("l2_delta_pp", Json.Float d.d_l2_pp) ]
  in
  let fopt = function None -> Json.Null | Some f -> Json.Float f in
  Json.Obj
    [
      ("row", Json.String r.rr_label);
      ("before", Json.Obj (fdelta r.rr_before));
      ("after", Json.Obj (fdelta r.rr_after));
      ("speedup_exact_pct", fopt r.rr_speedup_exact);
      ("speedup_sampled_pct", fopt r.rr_speedup_sampled);
      ("ok", Json.Bool (r.rr_violations = []));
      ("violations", Json.List (List.map (fun v -> Json.String v) r.rr_violations));
    ]

let measure_total_ms records =
  List.fold_left
    (fun acc (r : Engine.record) -> acc +. r.r_timings.t_measure_ms)
    0.0 records

let write_artifact ~path ~fidelity ~reports ~ms_exact ~ms_sampled ~ok =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let j =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("fidelity", Json.String (Sampled.fidelity_name fidelity));
        ("backend_exact", Json.String (Backend.to_string Backend.default));
        ("backend_sampled", Json.String (Backend.to_string Backend.default));
        ( "bounds",
          Json.Obj
            [
              ("l1_pp", Json.Float l1_bound_pp);
              ("l2_pp", Json.Float l2_bound_pp);
              ("speedup_zero_pct", Json.Float speedup_zero_pct);
            ] );
        ("measure_ms_exact", Json.Float ms_exact);
        ("measure_ms_sampled", Json.Float ms_sampled);
        ( "measure_speedup",
          if ms_sampled > 0.0 then Json.Float (ms_exact /. ms_sampled)
          else Json.Null );
        ("rows", Json.List (List.map json_of_report reports));
        ("ok", Json.Bool ok);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc

(* ---------------- entry ---------------- *)

let () =
  let jobs = ref 1 in
  let only = ref [] in
  let fidelity = ref Sampled.sampled_default in
  let out = ref (Filename.concat "_artifacts" "ACCURACY.json") in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n; parse rest
      | _ -> die "bad --jobs value %S" v)
    | "--only" :: v :: rest -> only := v :: !only; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--fidelity" :: v :: rest -> (
      match Sampled.fidelity_of_string v with
      | Ok (Sampled.Sampled _ as f) -> fidelity := f; parse rest
      | Ok Sampled.Exact -> die "--fidelity exact defeats the purpose here"
      | Error msg -> die "%s" msg)
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roster =
    match !only with
    | [] -> Suite.roster
    | names ->
      List.iter
        (fun n ->
          if
            not (List.exists (fun (e : Suite.entry) -> e.name = n) Suite.roster)
          then die "unknown --only benchmark %S" n)
        names;
      List.filter (fun (e : Suite.entry) -> List.mem e.name names) Suite.roster
  in
  let table3 ~backend ~fidelity =
    let run = Engine.create_run ~backend ~fidelity ~jobs:!jobs () in
    let (_ : string) = Engine.table3 run ~roster in
    let records = Engine.records run in
    Engine.finish run;
    records
  in
  say "== accuracy gate: exact vs %s ==" (Sampled.fidelity_name !fidelity);
  let exact = table3 ~backend:Backend.default ~fidelity:Sampled.Exact in
  let sampled = table3 ~backend:Backend.default ~fidelity:!fidelity in
  if List.length exact <> List.length sampled then
    die "row count differs: %d exact vs %d sampled" (List.length exact)
      (List.length sampled);
  let reports = List.map2 check_pair exact sampled in
  List.iter
    (fun r ->
      let show side = function
        | Some d -> Printf.sprintf "%s L1 %.3fpp L2 %.3fpp" side d.d_l1_pp d.d_l2_pp
        | None -> side ^ " -"
      in
      say "  %-36s %s | %s | speedup %s vs %s%s" r.rr_label
        (show "before" r.rr_before) (show "after" r.rr_after)
        (match r.rr_speedup_exact with
        | Some f -> Printf.sprintf "%+.2f%%" f
        | None -> "-")
        (match r.rr_speedup_sampled with
        | Some f -> Printf.sprintf "%+.2f%%" f
        | None -> "-")
        (if r.rr_violations = [] then "" else "  VIOLATES");
      List.iter (fun v -> prerr_endline ("  !! " ^ v)) r.rr_violations)
    reports;
  let ms_exact = measure_total_ms exact
  and ms_sampled = measure_total_ms sampled in
  say "measure phase: %.1f ms exact, %.1f ms sampled (%.2fx)" ms_exact
    ms_sampled
    (if ms_sampled > 0.0 then ms_exact /. ms_sampled else 0.0);
  let ok = List.for_all (fun r -> r.rr_violations = []) reports in
  write_artifact ~path:!out ~fidelity:!fidelity ~reports ~ms_exact ~ms_sampled
    ~ok;
  say "(accuracy report written to %s)" !out;
  if ok then
    say "accuracy: all %d rows within bounds (L1 %.1fpp, L2 %.1fpp, speedup \
         sign)"
      (List.length reports) l1_bound_pp l2_bound_pp
  else begin
    prerr_endline "accuracy: bounds exceeded";
    exit 1
  end
