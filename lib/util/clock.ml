external now_ns : unit -> (int64[@unboxed])
  = "slo_clock_now_ns_byte" "slo_clock_now_ns"
[@@noalloc]

let span_ms t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let elapsed_ms ~since = span_ms since (now_ns ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_ms ~since:t0)
