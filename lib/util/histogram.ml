(* Fixed geometric buckets, 1 µs .. 60 s (milliseconds) — ~3 per
   decade at the extremes, ~6 per decade across 0.1 ms .. 100 ms where
   serving latencies live and an SLO check needs resolution (a ladder
   that jumps 10 -> 20 cannot distinguish an 11 ms p99 from a 19 ms
   one). counts.(i) holds samples <= bounds.(i) (and > bounds.(i-1));
   counts.(n_bounds) is the overflow bucket. *)

let bounds =
  [|
    0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.15; 0.2; 0.3; 0.5; 0.7;
    1.0; 1.5; 2.0; 3.0; 5.0; 7.0; 10.0; 15.0; 20.0; 30.0; 50.0; 70.0;
    100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0; 10000.0; 20000.0; 60000.0;
  |]

type t = {
  counts : int array; (* length = Array.length bounds + 1 *)
  mutable n : int;
  mutable sum : float;
  mutable max : float;
}

let create () =
  { counts = Array.make (Array.length bounds + 1) 0; n = 0; sum = 0.0;
    max = 0.0 }

(* index of the first bound >= ms, or the overflow bucket *)
let bucket_of ms =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= ms then hi := mid else lo := mid + 1
  done;
  !lo

let record t ms =
  t.counts.(bucket_of ms) <- t.counts.(bucket_of ms) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. ms;
  if ms > t.max then t.max <- ms

let count t = t.n
let sum_ms t = t.sum
let max_ms t = t.max
let mean_ms t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let percentile t p =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Histogram.percentile: p outside [0..100]";
  if t.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.n))) in
    let acc = ref 0 and idx = ref (Array.length t.counts - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             idx := i;
             raise Exit
           end)
         t.counts
     with Exit -> ());
    if !idx >= Array.length bounds then t.max else Float.min bounds.(!idx) t.max
  end

let merge dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  if src.max > dst.max then dst.max <- src.max
