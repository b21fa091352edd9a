(* Compare two BENCH.json artifacts.

   Usage:
     dune exec bench/compare.exe -- [--out ACCURACY.json] A.json B.json

   Two modes, chosen by the artifacts' top-level [fidelity] field
   (absent = "exact", for artifacts predating the field):

   Strict (equal fidelities): the two files must contain the same result
   rows once every timing-derived field (the [timings_ms] block and the
   [measure_msteps_per_s] throughput) is stripped — cycles, steps, miss
   counters and speedups are all deterministic, so any difference is a
   real behavioural divergence, not noise. This is how CI pins the walk
   and superblock VM backends to each other at the artifact level.

   Accuracy (different fidelities, e.g. exact vs sampled): counters are
   estimates on the sampled side, so rows are compared as a report
   instead of byte-wise. The error status, steps and access counts must
   still match exactly (sampling never changes execution). Per row and
   per side (before/after), the L1 and L2 miss rates of the two files
   must agree within fixed bounds (|Δ| <= 0.5 percentage points for L1,
   1.0 for L2), and the measured speedups must not flip sign (a
   |speedup| below 0.1% counts as zero, and a zero only conflicts with a
   value clearing twice that band). The rule is
   [Slo_bench.Accuracy_rule]; this is the only place it is applied to
   Table 3 rows, and [make accuracy] runs it on the full roster.

   With [--out FILE] (accuracy mode only; a usage error in strict mode)
   the per-row report is also written as ACCURACY.json, schema 1: file A
   is the [exact] side and file B the [sampled] side; each row carries
   its label, the per-side miss-rate deltas, both speedups, [ok] and its
   [violations]. The file is written even when a bound is exceeded.

   In both modes the measure-phase totals of both files are printed
   along with their ratio (file A total / file B total) — run A exact
   and B sampled to read off the sampler's measure-phase speedup.
   Exits 1 on any mismatch or exceeded bound, 2 on usage/parse
   errors. *)

module Json = Slo_util.Json
open Slo_bench.Accuracy_rule
open Slo_bench.Bench_json

let fidelity_of j =
  match Json.member "fidelity" j with
  | Some (Json.String s) -> s
  | _ -> "exact"

(* a row with every wall-clock-derived field removed *)
let strip_row = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter
         (fun (k, _) ->
           not (String.equal k "timings_ms"
               || String.equal k "measure_msteps_per_s"))
         fields)
  | j -> j

let row_label = function
  | Json.Obj _ as row ->
    Printf.sprintf "%s/%s [%s]" (str_member "experiment" row)
      (str_member "benchmark" row) (str_member "scheme" row)
  | _ -> "?"

let measure_total_ms j =
  List.fold_left
    (fun acc row ->
      match Json.member "timings_ms" row with
      | Some tm -> (
        match Json.member "measure" tm with
        | Some (Json.Float ms) -> acc +. ms
        | Some (Json.Int ms) -> acc +. float_of_int ms
        | _ -> acc)
      | None -> acc)
    0.0 (rows j)

(* ---------------- strict mode ---------------- *)

let compare_strict complain path_a path_b ra rb =
  List.iter2
    (fun a b ->
      let sa = Json.to_string ~indent:false (strip_row a) in
      let sb = Json.to_string ~indent:false (strip_row b) in
      if not (String.equal sa sb) then
        complain
          (Printf.sprintf "row %s differs:\n  %s: %s\n  %s: %s" (row_label a)
             path_a sa path_b sb))
    ra rb

(* ---------------- accuracy mode ---------------- *)

(* miss-rate |Δ| of one side (before or after) of a row pair, in pp *)
type side = { l1_pp : float; l2_pp : float }

type report = {
  label : string;
  before : side option;
  after : side option;
  speedup_a : float option;
  speedup_b : float option;
  violations : string list;
}

(* identity and execution-exact fields: sampling never changes them *)
let exact_fields =
  [ "error"; "steps_before"; "steps_after"; "accesses_before";
    "accesses_after" ]

let show_member = function
  | Some v -> Json.to_string ~indent:false v
  | None -> "absent"

(* misses / accesses as a percentage, when both counters are present;
   a side without accesses has a 0% miss rate *)
let miss_rate_pct row ~misses_key ~accesses_key =
  match (num_member misses_key row, num_member accesses_key row) with
  | Some m, Some acc -> Some (if acc > 0.0 then 100.0 *. m /. acc else 0.0)
  | _ -> None

let check_pair complain a b =
  let violations = ref [] in
  let bad fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations; complain m) fmt
  in
  let label = row_label a in
  let speedup_a = num_member "speedup_pct" a
  and speedup_b = num_member "speedup_pct" b in
  let report before after =
    { label; before; after; speedup_a; speedup_b;
      violations = List.rev !violations }
  in
  if not (String.equal label (row_label b)) then begin
    bad "row order differs: %s vs %s" label (row_label b);
    report None None
  end
  else begin
    List.iter
      (fun k ->
        let va = Json.member k a and vb = Json.member k b in
        if va <> vb then
          bad "row %s: %s differs between fidelities (%s vs %s)" label k
            (show_member va) (show_member vb))
      exact_fields;
    (* miss-rate accuracy, each side of the transformation *)
    if num_member "l1_misses_before" a <> None then
      Printf.printf "%s\n" label;
    let delta level bound side =
      let misses_key = Printf.sprintf "l%d_misses_%s" level side
      and accesses_key = "accesses_" ^ side in
      match
        ( miss_rate_pct a ~misses_key ~accesses_key,
          miss_rate_pct b ~misses_key ~accesses_key )
      with
      | Some pa, Some pb ->
        let d = Float.abs (pa -. pb) in
        let name = Printf.sprintf "%s L%d %s" label level side in
        Printf.printf "  %-28s %7.3f%% vs %7.3f%%  |d| = %5.3fpp%s\n" name pa
          pb d
          (if d > bound then Printf.sprintf "  EXCEEDS %.1fpp" bound else "");
        if d > bound then
          bad "%s: miss-rate delta %.3fpp exceeds the %.1fpp bound" name d
            bound;
        Some d
      | _ -> None
    in
    let l1_before = delta 1 l1_bound_pp "before" in
    let l1_after = delta 1 l1_bound_pp "after" in
    let l2_before = delta 2 l2_bound_pp "before" in
    let l2_after = delta 2 l2_bound_pp "after" in
    (* the decision the measurement feeds must not flip *)
    (match (speedup_a, speedup_b) with
    | Some sa, Some sb ->
      let flips = sign_flip sa sb in
      Printf.printf "  %-28s %+7.2f%% vs %+7.2f%%  sign %s\n"
        (label ^ " speedup") sa sb
        (if flips then "FLIPS" else "agrees");
      if flips then
        bad "%s: speedup sign flips between fidelities (%+.2f%% vs %+.2f%%)"
          label sa sb
    | _ -> ());
    let side l1 l2 =
      match (l1, l2) with
      | Some l1_pp, Some l2_pp -> Some { l1_pp; l2_pp }
      | _ -> None
    in
    report (side l1_before l2_before) (side l1_after l2_after)
  end

(* ---------------- ACCURACY.json ---------------- *)

let json_of_report r =
  let side = function
    | None -> Json.Obj [ ("l1_delta_pp", Json.Null); ("l2_delta_pp", Json.Null) ]
    | Some s ->
      Json.Obj
        [ ("l1_delta_pp", Json.Float s.l1_pp);
          ("l2_delta_pp", Json.Float s.l2_pp) ]
  in
  let fopt = function None -> Json.Null | Some f -> Json.Float f in
  Json.Obj
    [ ("row", Json.String r.label);
      ("before", side r.before);
      ("after", side r.after);
      ("speedup_exact_pct", fopt r.speedup_a);
      ("speedup_sampled_pct", fopt r.speedup_b);
      ("ok", Json.Bool (r.violations = []));
      ("violations",
       Json.List (List.map (fun v -> Json.String v) r.violations)) ]

(* schema 1; file A is the exact side, file B the sampled one *)
let write_accuracy path ~ja ~jb ~ms_exact ~ms_sampled ~reports ~ok =
  let doc =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("fidelity", Json.String (fidelity_of jb));
        ("backend_exact", Json.String (str_member "backend" ja));
        ("backend_sampled", Json.String (str_member "backend" jb));
        ("bounds",
         Json.Obj
           [ ("l1_pp", Json.Float l1_bound_pp);
             ("l2_pp", Json.Float l2_bound_pp);
             ("speedup_zero_pct", Json.Float speedup_zero_pct) ]);
        ("measure_ms_exact", Json.Float ms_exact);
        ("measure_ms_sampled", Json.Float ms_sampled);
        ("measure_speedup",
         if ms_sampled > 0.0 then Json.Float (ms_exact /. ms_sampled)
         else Json.Null);
        ("rows", Json.List (List.map json_of_report reports));
        ("ok", Json.Bool ok) ]
  in
  Slo_util.Files.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc

let () =
  let out, path_a, path_b =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (None, a, b)
    | [ "--out"; out; a; b ] -> (Some out, a, b)
    | _ -> die "usage: compare.exe [--out ACCURACY.json] A.json B.json"
  in
  let ja = read_file path_a and jb = read_file path_b in
  let fa = fidelity_of ja and fb = fidelity_of jb in
  let ra = rows ja and rb = rows jb in
  let strict = String.equal fa fb in
  if strict && out <> None then
    die "--out writes an accuracy report: %s and %s are both %s" path_a
      path_b fa;
  let mismatches = ref 0 in
  let complain fmt =
    Printf.ksprintf (fun s -> incr mismatches; prerr_endline s) fmt
  in
  let reports =
    if List.length ra <> List.length rb then begin
      complain "row count differs: %d in %s, %d in %s" (List.length ra)
        path_a (List.length rb) path_b;
      []
    end
    else if strict then begin
      compare_strict (complain "%s") path_a path_b ra rb;
      []
    end
    else begin
      Printf.printf "accuracy report: %s (%s) vs %s (%s)\n" path_a fa path_b
        fb;
      List.map2 (check_pair (complain "%s")) ra rb
    end
  in
  let ta = measure_total_ms ja and tb = measure_total_ms jb in
  Printf.printf "%-12s backend=%-10s fidelity=%-16s measure total %10.1f ms\n"
    path_a (str_member "backend" ja) fa ta;
  Printf.printf "%-12s backend=%-10s fidelity=%-16s measure total %10.1f ms\n"
    path_b (str_member "backend" jb) fb tb;
  if tb > 0.0 then
    Printf.printf "measure-phase ratio (%s / %s): %.2fx\n" path_a path_b
      (ta /. tb);
  Option.iter
    (fun path ->
      write_accuracy path ~ja ~jb ~ms_exact:ta ~ms_sampled:tb ~reports
        ~ok:(!mismatches = 0);
      Printf.printf "(accuracy report written to %s)\n" path)
    out;
  if !mismatches = 0 then
    if strict then
      Printf.printf
        "rows agree: %d rows semantically identical (modulo timings)\n"
        (List.length ra)
    else
      Printf.printf
        "rows agree: %d rows within accuracy bounds (L1 %.1fpp, L2 %.1fpp, \
         speedup sign)\n"
        (List.length ra) l1_bound_pp l2_bound_pp
  else begin
    Printf.eprintf "%d mismatch(es)\n" !mismatches;
    exit 1
  end
