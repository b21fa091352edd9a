(* Compare two BENCH.json artifacts.

   Usage:
     dune exec bench/compare.exe -- A.json B.json

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
   instead of byte-wise. Steps must still match exactly (sampling never
   changes execution). Per row and per side (before/after), the L1 and
   L2 miss rates of the two files must agree within fixed bounds
   (|Δ| <= 0.5 percentage points for L1, 1.0 for L2), and the measured
   speedups must not flip sign (a |speedup| below 0.1% counts as zero,
   and a zero only conflicts with a value clearing twice that band).
   This is the artifact-level face of the roster accuracy gate and
   applies the same rule ([Slo_bench.Accuracy_rule]).

   In both modes the measure-phase totals of both files are printed
   along with their ratio (file A total / file B total) — run A exact
   and B sampled to read off the sampler's measure-phase speedup.
   Exits 1 on any mismatch or exceeded bound, 2 on usage/parse
   errors. *)

module Json = Slo_util.Json
open Slo_bench.Accuracy_rule

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "cannot open %s: %s" path msg
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.of_string s with
    | j -> j
    | exception Json.Parse_error msg -> die "%s: %s" path msg)

let str_member key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> "?"

let num_member key j =
  match Json.member key j with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let rows j =
  match Json.member "results" j with
  | Some (Json.List rs) -> rs
  | _ -> die "missing 'results' list"

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

(* misses / accesses as a percentage, when both counters are present *)
let miss_rate_pct row ~misses_key ~accesses_key =
  match (num_member misses_key row, num_member accesses_key row) with
  | Some m, Some acc when acc > 0.0 -> Some (100.0 *. m /. acc)
  | _ -> None

let compare_accuracy complain ra rb =
  let check_rate label bound a b ~misses_key ~accesses_key =
    match
      ( miss_rate_pct a ~misses_key ~accesses_key,
        miss_rate_pct b ~misses_key ~accesses_key )
    with
    | Some pa, Some pb ->
      let d = Float.abs (pa -. pb) in
      Printf.printf "  %-28s %7.3f%% vs %7.3f%%  |d| = %5.3fpp%s\n"
        label pa pb d
        (if d > bound then Printf.sprintf "  EXCEEDS %.1fpp" bound else "");
      if d > bound then
        complain
          (Printf.sprintf "%s: miss-rate delta %.3fpp exceeds the %.1fpp bound"
             label d bound)
    | _ -> ()
  in
  List.iter2
    (fun a b ->
      let label = row_label a in
      if not (String.equal label (row_label b)) then
        complain
          (Printf.sprintf "row order differs: %s vs %s" label (row_label b))
      else begin
        (* identity and execution-exact fields must match in any fidelity *)
        List.iter
          (fun k ->
            let va = Json.member k a and vb = Json.member k b in
            if va <> vb then
              complain
                (Printf.sprintf
                   "row %s: %s differs between fidelities (%s vs %s)" label k
                   (match va with
                   | Some v -> Json.to_string ~indent:false v
                   | None -> "absent")
                   (match vb with
                   | Some v -> Json.to_string ~indent:false v
                   | None -> "absent")))
          [ "error"; "steps_before"; "steps_after" ];
        (* miss-rate accuracy, each side of the transformation *)
        if Json.member "l1_misses_before" a <> Some Json.Null then begin
          Printf.printf "%s\n" label;
          check_rate (label ^ " L1 before") l1_bound_pp a b
            ~misses_key:"l1_misses_before" ~accesses_key:"accesses_before";
          check_rate (label ^ " L1 after") l1_bound_pp a b
            ~misses_key:"l1_misses_after" ~accesses_key:"accesses_after";
          check_rate (label ^ " L2 before") l2_bound_pp a b
            ~misses_key:"l2_misses_before" ~accesses_key:"accesses_before";
          check_rate (label ^ " L2 after") l2_bound_pp a b
            ~misses_key:"l2_misses_after" ~accesses_key:"accesses_after";
          (* the decision the measurement feeds must not flip *)
          match (num_member "speedup_pct" a, num_member "speedup_pct" b) with
          | Some sa, Some sb ->
            let flips = sign_flip sa sb in
            Printf.printf "  %-28s %+7.2f%% vs %+7.2f%%  sign %s\n"
              (label ^ " speedup") sa sb
              (if flips then "FLIPS" else "agrees");
            if flips then
              complain
                (Printf.sprintf
                   "%s: speedup sign flips between fidelities (%+.2f%% vs \
                    %+.2f%%)"
                   label sa sb)
          | _ -> ()
        end
      end)
    ra rb

let () =
  let path_a, path_b =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> die "usage: compare.exe A.json B.json"
  in
  let ja = read_file path_a and jb = read_file path_b in
  let fa = fidelity_of ja and fb = fidelity_of jb in
  let ra = rows ja and rb = rows jb in
  let mismatches = ref 0 in
  let complain fmt =
    Printf.ksprintf (fun s -> incr mismatches; prerr_endline s) fmt
  in
  let strict = String.equal fa fb in
  if List.length ra <> List.length rb then
    complain "row count differs: %d in %s, %d in %s" (List.length ra) path_a
      (List.length rb) path_b
  else begin
    let complain1 s = complain "%s" s in
    if strict then compare_strict complain1 path_a path_b ra rb
    else begin
      Printf.printf "accuracy report: %s (%s) vs %s (%s)\n" path_a fa path_b
        fb;
      compare_accuracy complain1 ra rb
    end
  end;
  let ta = measure_total_ms ja and tb = measure_total_ms jb in
  Printf.printf "%-12s backend=%-10s fidelity=%-16s measure total %10.1f ms\n"
    path_a (str_member "backend" ja) fa ta;
  Printf.printf "%-12s backend=%-10s fidelity=%-16s measure total %10.1f ms\n"
    path_b (str_member "backend" jb) fb tb;
  if tb > 0.0 then
    Printf.printf "measure-phase ratio (%s / %s): %.2fx\n" path_a path_b
      (ta /. tb);
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
