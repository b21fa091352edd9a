(* The measure-phase throughput and profile-collection gate.

   Usage:
     dune exec bench/perfgate.exe -- BASELINE.json FRESH.json [FRESH.json ...]
       [--tolerance PCT]

   Reads the committed baseline artifact (ci/PERF-BASELINE.json) and
   one or more freshly produced BENCH.json files of the same roster,
   lines their result rows up by (experiment, benchmark, scheme), and
   compares two numbers: [measure_msteps_per_s] — the measure-phase
   throughput in million VM steps per second, the number the
   batched-ring work is accountable for — and [timings_ms.profile], the
   PBO training run's wall-clock.

   Each fresh artifact yields an AGGREGATE throughput — total steps
   over total measure time across its rows, i.e. the time-weighted mean
   of the per-row numbers — and a total profile time over the rows it
   shares with the baseline. The gate takes the median of each over
   the fresh artifacts, so one run caught by a load spike on a shared
   host neither fails the gate nor, on a quiet spell, hides a real
   regression in the others. It fails (exit 1) when the median
   aggregate throughput regresses by more than [--tolerance] percent
   (default 20), or when the median total profile time grows by more
   than the same tolerance. Per-row regressions of the median beyond
   the tolerance are printed as warnings but do not fail the build on
   their own: the small roster programs finish in milliseconds and
   their individual numbers are noise-dominated, while the aggregates
   are dominated by the long-running rows and are stable.

   Rows present in the baseline but missing from any fresh artifact
   (dropped benchmark, renamed scheme), and matched rows whose
   [timings_ms] lacks a [profile] entry on either side, fail the gate:
   silently losing coverage would let the next regression hide. Exit 2
   on usage or parse errors.

   With --update-baseline the comparison is skipped and the one FRESH.json
   is copied over BASELINE.json instead (after checking it actually
   carries throughput rows, each with a profile time) — the sanctioned
   way to regenerate ci/PERF-BASELINE.json in place after an
   intentional perf change, rather than hand-editing the artifact. *)

module Json = Slo_util.Json
open Slo_bench.Bench_json

let row_key j =
  Printf.sprintf "%s/%s/%s" (str_member "experiment" j)
    (str_member "benchmark" j) (str_member "scheme" j)

let timing key j =
  match Json.member "timings_ms" j with
  | Some t -> num_member key t
  | None -> None

type row = {
  key : string;
  msteps_per_s : float;
  measure_ms : float;
  profile_ms : float option;
}

(* rows that carry a throughput number *)
let perf_rows j =
  List.filter_map
    (fun r ->
      match (num_member "measure_msteps_per_s" r, timing "measure" r) with
      | Some th, Some ms when th > 0.0 && ms > 0.0 ->
        Some
          {
            key = row_key r;
            msteps_per_s = th;
            measure_ms = ms;
            profile_ms = timing "profile" r;
          }
      | _ -> None)
    (rows j)

let aggregate rs =
  (* total steps / total time = time-weighted mean throughput *)
  let steps =
    List.fold_left (fun a r -> a +. (r.msteps_per_s *. r.measure_ms)) 0.0 rs
  in
  let time = List.fold_left (fun a r -> a +. r.measure_ms) 0.0 rs in
  if time > 0.0 then steps /. time else 0.0

let copy_file ~src ~dst =
  let ic = open_in_bin src in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let tmp = dst ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc body;
  close_out oc;
  Sys.rename tmp dst

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let base_path = ref "" and fresh_paths = ref [] and tol = ref 20.0 in
  let update = ref false in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0.0 -> tol := t
      | _ -> die "bad --tolerance %S" v);
      parse rest
    | "--update-baseline" :: rest ->
      update := true;
      parse rest
    | a :: rest when !base_path = "" ->
      base_path := a;
      parse rest
    | a :: rest ->
      fresh_paths := a :: !fresh_paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let fresh_paths = List.rev !fresh_paths in
  if fresh_paths = [] then
    die "usage: perfgate BASELINE.json FRESH.json [FRESH.json ...] \
         [--tolerance PCT] [--update-baseline]";
  if !update then begin
    let fresh_path =
      match fresh_paths with
      | [ p ] -> p
      | _ -> die "--update-baseline takes exactly one FRESH.json"
    in
    (* refuse to enshrine an artifact the gate itself could not read *)
    let fresh = perf_rows (read_file fresh_path) in
    if fresh = [] then die "%s carries no throughput rows" fresh_path;
    List.iter
      (fun r ->
        if r.profile_ms = None then
          die "%s: row %s has no timings_ms.profile" fresh_path r.key)
      fresh;
    copy_file ~src:fresh_path ~dst:!base_path;
    Printf.printf "baseline %s regenerated from %s (%d throughput rows)\n"
      !base_path fresh_path (List.length fresh);
    exit 0
  end;
  let base = perf_rows (read_file !base_path) in
  if base = [] then die "%s carries no throughput rows" !base_path;
  let fresh =
    List.map
      (fun p ->
        match perf_rows (read_file p) with
        | [] -> die "%s carries no throughput rows" p
        | rs -> (p, rs))
      fresh_paths
  in
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        print_endline ("FAIL " ^ s);
        failed := true)
      fmt
  in
  (* per-row report on the median over the fresh artifacts; missing
     coverage in any of them fails, slow rows only warn *)
  let profile_b = ref 0.0 in
  List.iter
    (fun b ->
      (match b.profile_ms with
      | Some pb -> profile_b := !profile_b +. pb
      | None -> fail "%-40s baseline row has no timings_ms.profile" b.key);
      let found =
        List.filter_map
          (fun (p, rs) ->
            match List.find_opt (fun f -> String.equal f.key b.key) rs with
            | None ->
              fail "%-40s baseline %8.1f Msteps/s, missing from %s" b.key
                b.msteps_per_s p;
              None
            | Some f ->
              if f.profile_ms = None then
                fail "%-40s row in %s has no timings_ms.profile" b.key p;
              Some f.msteps_per_s)
          fresh
      in
      if found <> [] then begin
        let m = median found in
        let delta = (m /. b.msteps_per_s -. 1.0) *. 100.0 in
        let tag = if delta < -. !tol then "warn" else "ok  " in
        Printf.printf "%s %-40s %8.1f -> %8.1f Msteps/s (%+.1f%%)\n" tag b.key
          b.msteps_per_s m delta
      end)
    base;
  (* each artifact's profile total over the rows it shares with the
     baseline *)
  let profile_total rs =
    List.fold_left
      (fun a f ->
        match f.profile_ms with
        | Some pf when List.exists (fun b -> String.equal b.key f.key) base ->
          a +. pf
        | _ -> a)
      0.0 rs
  in
  List.iter
    (fun (p, rs) ->
      Printf.printf "  %s: %.1f Msteps/s, profile %.1f ms\n" p (aggregate rs)
        (profile_total rs))
    fresh;
  let agg_b = aggregate base in
  let agg_f = median (List.map (fun (_, rs) -> aggregate rs) fresh) in
  let runs = List.length fresh in
  let delta = (agg_f /. agg_b -. 1.0) *. 100.0 in
  Printf.printf "aggregate measure throughput: %.1f -> %.1f Msteps/s \
                 (median of %d, %+.1f%%, tolerance -%.0f%%)\n"
    agg_b agg_f runs delta !tol;
  if delta < -. !tol then fail "aggregate regression beyond tolerance";
  let profile_f = median (List.map (fun (_, rs) -> profile_total rs) fresh) in
  let pdelta =
    if !profile_b > 0.0 then (profile_f /. !profile_b -. 1.0) *. 100.0 else 0.0
  in
  Printf.printf "total profile time: %.1f -> %.1f ms \
                 (median of %d, %+.1f%%, tolerance +%.0f%%)\n"
    !profile_b profile_f runs pdelta !tol;
  if pdelta > !tol then fail "profile time regression beyond tolerance";
  exit (if !failed then 1 else 0)
