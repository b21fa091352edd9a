(* Statistics and table rendering. *)

module Stats = Slo_util.Stats
module Table = Slo_util.Table
module Json = Slo_util.Json

let feq = Alcotest.float 1e-9

let mean_and_sum () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.check feq "sum" 6.0 (Stats.sum [| 1.0; 2.0; 3.0 |]);
  Alcotest.check feq "sum empty" 0.0 (Stats.sum [||]);
  Alcotest.check_raises "mean empty"
    (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

let corr_exn xs ys =
  match Stats.correlation xs ys with
  | Some r -> r
  | None -> Alcotest.fail "expected Some correlation"

let corr_exn' i xs ys =
  match Stats.correlation_excluding i xs ys with
  | Some r -> r
  | None -> Alcotest.fail "expected Some correlation"

let correlation_basics () =
  Alcotest.check feq "perfect" 1.0
    (corr_exn [| 1.0; 2.0; 3.0 |] [| 10.0; 20.0; 30.0 |]);
  Alcotest.check feq "negative" (-1.0)
    (corr_exn [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]);
  (* a zero-variance series has no defined correlation: None, not a fake
     0.0 that reads as "genuinely uncorrelated" *)
  Alcotest.(check bool) "constant series undefined" true
    (Stats.correlation [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |] = None);
  Alcotest.(check bool) "both constant undefined" true
    (Stats.correlation [| 2.0; 2.0 |] [| 5.0; 5.0 |] = None);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.correlation: length mismatch") (fun () ->
      ignore (Stats.correlation [| 1.0 |] [| 1.0; 2.0 |]))

(* the paper's formula on Table 2's published PBO/PPBO columns should give
   (nearly) the published correlation 0.986 *)
let correlation_paper_table2 () =
  let pbo =
    [| 0.2; 0.0; 73.7; 20.8; 20.7; 0.1; 3.1; 23.2; 39.9; 0.8; 0.7; 100.0;
       2.8; 53.3; 33.7 |]
  in
  let ppbo =
    [| 0.0; 0.0; 74.7; 21.7; 21.7; 0.0; 1.3; 22.6; 42.5; 0.2; 0.2; 100.0;
       0.9; 69.6; 48.4 |]
  in
  let r = corr_exn pbo ppbo in
  Alcotest.check (Alcotest.float 0.01) "paper r(PBO,PPBO)" 0.986 r

let correlation_excluding () =
  (* removing a dominant outlier changes the coefficient *)
  let xs = [| 100.0; 1.0; 2.0; 3.0 |] and ys = [| 100.0; 3.0; 2.0; 1.0 |] in
  let r = corr_exn xs ys in
  let r' = corr_exn' 0 xs ys in
  Alcotest.check Alcotest.bool "r dominated" true (r > 0.9);
  Alcotest.check feq "r' negative" (-1.0) r';
  Alcotest.check_raises "bad index"
    (Invalid_argument "Stats.correlation_excluding: index out of bounds")
    (fun () -> ignore (Stats.correlation_excluding 9 xs ys))

let relative_percent () =
  Alcotest.check (Alcotest.array feq) "scaled" [| 50.0; 100.0; 0.0 |]
    (Stats.relative_percent [| 2.0; 4.0; 0.0 |]);
  Alcotest.check (Alcotest.array feq) "all zero" [| 0.0; 0.0 |]
    (Stats.relative_percent [| 0.0; 0.0 |])

let argmax () =
  Alcotest.check Alcotest.int "argmax" 1 (Stats.argmax [| 1.0; 5.0; 5.0 |])

let prop_correlation_bounded =
  QCheck.Test.make ~count:300 ~name:"correlation in [-1,1]"
    QCheck.(pair (list_of_size (Gen.int_range 2 20) (float_range (-100.) 100.))
              (list_of_size (Gen.int_range 2 20) (float_range (-100.) 100.)))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      QCheck.assume (n >= 2);
      let xs = Array.of_list (List.filteri (fun i _ -> i < n) a) in
      let ys = Array.of_list (List.filteri (fun i _ -> i < n) b) in
      match Stats.correlation xs ys with
      | None -> true (* degenerate variance: correlation undefined *)
      | Some r -> r >= -1.0000001 && r <= 1.0000001)

let prop_correlation_symmetric =
  QCheck.Test.make ~count:300 ~name:"correlation symmetric"
    QCheck.(list_of_size (Gen.int_range 2 10)
              (pair (float_range (-50.) 50.) (float_range (-50.) 50.)))
    (fun ps ->
      QCheck.assume (List.length ps >= 2);
      let xs = Array.of_list (List.map fst ps) in
      let ys = Array.of_list (List.map snd ps) in
      match (Stats.correlation xs ys, Stats.correlation ys xs) with
      | Some r1, Some r2 -> Float.abs (r1 -. r2) < 1e-9
      | None, None -> true
      | _ -> false)

let table_render () =
  let t = Table.create ~title:"demo" [ ("a", Table.Left); ("bb", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "long"; "22" ];
  let s = Table.render t in
  Alcotest.check Alcotest.bool "has title" true
    (String.length s > 4 && String.sub s 0 4 = "demo");
  (* all data lines share a width *)
  let lines =
    List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' s)
  in
  let widths = List.map String.length (List.tl lines) in
  Alcotest.check Alcotest.bool "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.check_raises "cell mismatch"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "only one" ])

let formatting () =
  Alcotest.check Alcotest.string "pct" "20.9" (Table.fpct 20.94);
  Alcotest.check Alcotest.string "big" "2.352e+08" (Table.fnum 2.352e8);
  Alcotest.check Alcotest.string "int" "42" (Table.fnum 42.0)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "mcf \"train\"\n");
        ("n", Json.Int (-42));
        ("pct", Json.Float 3.25);
        ("ok", Json.Bool true);
        ("missing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Float 0.5; Json.String "" ]);
        ("nested", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  let s = Json.to_string ~indent:true v in
  Alcotest.(check bool) "roundtrip" true (Json.of_string s = v);
  let s' = Json.to_string v in
  Alcotest.(check bool) "compact roundtrip" true (Json.of_string s' = v)

let json_edge_cases () =
  (* non-finite floats are not representable in JSON: raising beats
     emitting a null that silently decodes as a different value *)
  let rejects v =
    match Json.to_string v with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "nan rejected" true (rejects (Json.Float Float.nan));
  Alcotest.(check bool) "inf rejected" true
    (rejects (Json.Float Float.infinity));
  Alcotest.(check bool) "-inf rejected" true
    (rejects (Json.Float Float.neg_infinity));
  Alcotest.(check bool) "nested nan rejected" true
    (rejects (Json.Obj [ ("a", Json.List [ Json.Float Float.nan ]) ]));
  Alcotest.(check bool) "member hit" true
    (Json.member "a" (Json.Obj [ ("a", Json.Int 1) ]) = Some (Json.Int 1));
  Alcotest.(check bool) "member miss" true
    (Json.member "b" (Json.Obj [ ("a", Json.Int 1) ]) = None);
  Alcotest.(check bool) "escape roundtrip" true
    (Json.of_string (Json.to_string (Json.String "a\\b\"c\tz\x01"))
     = Json.String "a\\b\"c\tz\x01");
  let raises s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage rejected" true (raises "1 2");
  Alcotest.(check bool) "unterminated string rejected" true (raises "\"ab");
  Alcotest.(check bool) "bare word rejected" true (raises "nope")

let json_strict_single_document () =
  let raises s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  (* exactly one document: anything after the value is an error, not
     ignored — the server frames one JSON document per request *)
  Alcotest.(check bool) "two objects rejected" true (raises "{} {}");
  Alcotest.(check bool) "value then bracket rejected" true (raises "[1] ]");
  Alcotest.(check bool) "null then comment rejected" true (raises "null x");
  Alcotest.(check bool) "number then letter rejected" true (raises "1e3x");
  (* surrounding whitespace is fine *)
  Alcotest.(check bool) "padded document accepted" true
    (Json.of_string " \n\t {\"a\": 1} \r\n " = Json.Obj [ ("a", Json.Int 1) ]);
  (* strict numbers *)
  Alcotest.(check bool) "leading zero rejected" true (raises "01");
  Alcotest.(check bool) "negative leading zero rejected" true (raises "-07");
  Alcotest.(check bool) "zero accepted" true (Json.of_string "0" = Json.Int 0);
  Alcotest.(check bool) "negative zero accepted" true
    (Json.of_string "-0" = Json.Int 0);
  Alcotest.(check bool) "zero point accepted" true
    (Json.of_string "0.5" = Json.Float 0.5);
  Alcotest.(check bool) "empty input rejected" true (raises "");
  Alcotest.(check bool) "whitespace only rejected" true (raises "  \n ")

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:500 ~name:"finite float round-trips"
    QCheck.(float_range (-1e12) 1e12)
    (fun f ->
      (* %.6g keeps 6 significant digits, so the round-trip is close,
         not bit-exact — and always reads back as a Float, never an Int *)
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Float g ->
        Float.abs (g -. f) <= 1e-5 *. Float.max 1e-30 (Float.abs f)
      | _ -> false)

(* ---------------- lru ---------------- *)

module Lru = Slo_util.Lru

let lru_eviction_order () =
  (* capacity for three 1-byte entries *)
  let t = Lru.create ~capacity_bytes:3 in
  Alcotest.(check bool) "add a" true (Lru.add t "a" 1 ~bytes:1);
  Alcotest.(check bool) "add b" true (Lru.add t "b" 2 ~bytes:1);
  Alcotest.(check bool) "add c" true (Lru.add t "c" 3 ~bytes:1);
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ] (Lru.keys_mru t);
  (* the fourth entry evicts the least recently used, "a" *)
  Alcotest.(check bool) "add d" true (Lru.add t "d" 4 ~bytes:1);
  Alcotest.(check bool) "a evicted" true (Lru.find t "a" = None);
  Alcotest.(check (list string)) "after eviction" [ "d"; "c"; "b" ]
    (Lru.keys_mru t);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions t);
  Alcotest.(check int) "length" 3 (Lru.length t);
  Alcotest.(check int) "bytes" 3 (Lru.bytes t)

let lru_hit_promotion () =
  let t = Lru.create ~capacity_bytes:3 in
  ignore (Lru.add t "a" 1 ~bytes:1);
  ignore (Lru.add t "b" 2 ~bytes:1);
  ignore (Lru.add t "c" 3 ~bytes:1);
  (* touching "a" makes it most-recently-used ... *)
  Alcotest.(check bool) "hit" true (Lru.find t "a" = Some 1);
  Alcotest.(check (list string)) "promoted" [ "a"; "c"; "b" ] (Lru.keys_mru t);
  (* ... so the next eviction takes "b" instead *)
  ignore (Lru.add t "d" 4 ~bytes:1);
  Alcotest.(check bool) "b evicted" true (Lru.find t "b" = None);
  Alcotest.(check bool) "a survived" true (Lru.find t "a" = Some 1);
  (* mem does not promote *)
  ignore (Lru.add t "e" 5 ~bytes:1);
  (* now [e; a; d] — mem on d, then evict: d must still go last-used-first *)
  Alcotest.(check bool) "mem sees d" true (Lru.mem t "d");
  ignore (Lru.add t "f" 6 ~bytes:1);
  Alcotest.(check bool) "mem did not promote d" true (Lru.find t "d" = None)

let lru_byte_accounting () =
  let t = Lru.create ~capacity_bytes:10 in
  Alcotest.(check bool) "big entry fits" true (Lru.add t "big" 0 ~bytes:8);
  Alcotest.(check bool) "small entry fits" true (Lru.add t "s1" 1 ~bytes:2);
  Alcotest.(check int) "bytes full" 10 (Lru.bytes t);
  (* a 3-byte entry forces out "big" (LRU), freeing 8 *)
  Alcotest.(check bool) "third entry" true (Lru.add t "s2" 2 ~bytes:3);
  Alcotest.(check bool) "big evicted" true (not (Lru.mem t "big"));
  Alcotest.(check int) "bytes after eviction" 5 (Lru.bytes t);
  (* replacing a key releases its old budget, and is not an eviction *)
  let ev0 = Lru.evictions t in
  Alcotest.(check bool) "replace s1" true (Lru.add t "s1" 10 ~bytes:5);
  Alcotest.(check int) "bytes after replace" 8 (Lru.bytes t);
  Alcotest.(check bool) "replaced value" true (Lru.find t "s1" = Some 10);
  Alcotest.(check int) "replace is not an eviction" ev0 (Lru.evictions t);
  (* an entry larger than the whole cache is refused without side effects *)
  let len0 = Lru.length t in
  Alcotest.(check bool) "oversized refused" false (Lru.add t "huge" 9 ~bytes:11);
  Alcotest.(check int) "nothing evicted for oversized" len0 (Lru.length t);
  Alcotest.(check bool) "oversized not stored" false (Lru.mem t "huge");
  (* remove releases budget *)
  Lru.remove t "s1";
  Alcotest.(check int) "bytes after remove" 3 (Lru.bytes t);
  Alcotest.check_raises "negative bytes rejected"
    (Invalid_argument "Lru.add: negative size") (fun () ->
      ignore (Lru.add t "neg" 0 ~bytes:(-1)));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity_bytes must be positive") (fun () ->
      ignore (Lru.create ~capacity_bytes:0))

let lru_head_hit_is_not_a_promotion () =
  let t = Lru.create ~capacity_bytes:4 in
  ignore (Lru.add t "a" 1 ~bytes:1);
  ignore (Lru.add t "b" 2 ~bytes:1);
  (* "b" is already MRU: a hit must leave the list untouched *)
  let p0 = Lru.promotions t in
  Alcotest.(check bool) "head hit" true (Lru.find t "b" = Some 2);
  Alcotest.(check int) "head hit does not relink" p0 (Lru.promotions t);
  Alcotest.(check (list string)) "order unchanged" [ "b"; "a" ]
    (Lru.keys_mru t);
  (* a non-head hit does promote *)
  Alcotest.(check bool) "tail hit" true (Lru.find t "a" = Some 1);
  Alcotest.(check int) "tail hit promotes" (p0 + 1) (Lru.promotions t);
  Alcotest.(check (list string)) "tail now MRU" [ "a"; "b" ] (Lru.keys_mru t);
  (* a single-entry cache survives repeated self-hits intact *)
  let s = Lru.create ~capacity_bytes:1 in
  ignore (Lru.add s "x" 1 ~bytes:1);
  Alcotest.(check bool) "hit" true (Lru.find s "x" = Some 1);
  Alcotest.(check bool) "hit again" true (Lru.find s "x" = Some 1);
  Alcotest.(check int) "no self-promotions" 0 (Lru.promotions s);
  ignore (Lru.add s "y" 2 ~bytes:1);
  Alcotest.(check (list string)) "list intact after evicting the only entry"
    [ "y" ] (Lru.keys_mru s)

(* ---------------- clock ---------------- *)

module Clock = Slo_util.Clock

let clock_monotonic () =
  let t0 = Clock.now_ns () in
  let last = ref t0 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if Int64.compare t !last < 0 then ok := false;
    last := t
  done;
  Alcotest.(check bool) "never steps backwards" true !ok;
  Unix.sleepf 0.01;
  Alcotest.(check bool) "sleep advances it" true
    (Clock.elapsed_ms ~since:t0 >= 9.0);
  let t1 = Clock.now_ns () in
  Alcotest.(check (float 1e-9)) "span agrees with the raw difference"
    (Int64.to_float (Int64.sub t1 t0) /. 1e6)
    (Clock.span_ms t0 t1)

(* ---------------- histogram ---------------- *)

module Histogram = Slo_util.Histogram

let histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.check feq "empty percentile" 0.0 (Histogram.percentile h 50.0);
  List.iter (Histogram.record h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.check feq "sum" 10.0 (Histogram.sum_ms h);
  Alcotest.check feq "mean" 2.5 (Histogram.mean_ms h);
  Alcotest.check feq "max" 4.0 (Histogram.max_ms h);
  (* percentiles are bucket upper bounds: conservative, never under *)
  Alcotest.(check bool) "p50 covers median" true
    (Histogram.percentile h 50.0 >= 2.0);
  Alcotest.(check bool) "p100 covers max" true
    (Histogram.percentile h 100.0 >= 4.0);
  Alcotest.(check bool) "monotone in p" true
    (Histogram.percentile h 99.0 >= Histogram.percentile h 50.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.percentile: p outside [0..100]") (fun () ->
      ignore (Histogram.percentile h 101.0));
  (* overflow bucket reports the exact observed maximum *)
  Histogram.record h 1e9;
  Alcotest.check feq "overflow p100 is exact max" 1e9
    (Histogram.percentile h 100.0)

(* a bucket's upper bound above every sample is no latency any request
   had: the daemon's stats once read p95=2000 ms with max=1495.1 ms *)
let histogram_clamped_to_max () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 20.0; 1495.1 ];
  Alcotest.check feq "p50 is its bucket bound" 20.0 (Histogram.percentile h 50.0);
  Alcotest.check feq "p95 is the max" 1495.1 (Histogram.percentile h 95.0);
  Alcotest.check feq "p99 is the max" 1495.1 (Histogram.percentile h 99.0)

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 1.0; 2.0 ];
  List.iter (Histogram.record b) [ 100.0; 200.0 ];
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 4 (Histogram.count a);
  Alcotest.check feq "merged sum" 303.0 (Histogram.sum_ms a);
  Alcotest.check feq "merged max" 200.0 (Histogram.max_ms a);
  Alcotest.(check bool) "merged p75 in upper half" true
    (Histogram.percentile a 75.0 >= 100.0);
  (* src is untouched *)
  Alcotest.(check int) "src count intact" 2 (Histogram.count b)

let () =
  Alcotest.run "util"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/sum" `Quick mean_and_sum;
          Alcotest.test_case "correlation" `Quick correlation_basics;
          Alcotest.test_case "paper table2 r" `Quick correlation_paper_table2;
          Alcotest.test_case "correlation excluding" `Quick
            correlation_excluding;
          Alcotest.test_case "relative percent" `Quick relative_percent;
          Alcotest.test_case "argmax" `Quick argmax;
          QCheck_alcotest.to_alcotest prop_correlation_bounded;
          QCheck_alcotest.to_alcotest prop_correlation_symmetric;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "formatting" `Quick formatting;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "edge cases" `Quick json_edge_cases;
          Alcotest.test_case "strict single document" `Quick
            json_strict_single_document;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "hit promotion" `Quick lru_hit_promotion;
          Alcotest.test_case "byte accounting" `Quick lru_byte_accounting;
          Alcotest.test_case "head hit is not a promotion" `Quick
            lru_head_hit_is_not_a_promotion;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick clock_monotonic ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick histogram_basics;
          Alcotest.test_case "merge" `Quick histogram_merge;
          Alcotest.test_case "percentiles clamped to the max" `Quick
            histogram_clamped_to_max;
        ] );
    ]
