(* Sampled cache simulation: detailed windows plus functional warming,
   mirroring the paper's PMU-based collection — the hardware never
   observes every access either, it samples events and extrapolates.

   Each period of [stride] accesses is laid out as

     [0, window)        detailed: full recorded simulation
     [window, stride)   warm: cache state updated, not recorded

   Every access outside the detailed window still moves tag/LRU state
   ({!Hierarchy.warm}); only the counter work is sampled.

   Warming has a fast path the recorded window cannot take: a warm
   access falling entirely within the line touched by the immediately
   preceding access is a no-op for eviction order (the line is already
   resident and most-recent in its set), so it skips the probe.

   Recorded counters cover only the detailed windows; the estimators
   scale them by total/recorded accesses. *)

type t = {
  h : Hierarchy.t;
  window : int;
  stride : int;
  line_mask : int;      (* of the integer first-level (L1) line *)
  fp_line_mask : int;   (* of the FP first-level line (L2 under bypass) *)
  mutable last_line : int;  (* line tag of the previous access; -1 = none *)
  mutable pos : int;    (* position within the current period *)
  mutable total : int;  (* every access, recorded or not *)
}

let default_window = 4096
let default_stride = 32768

let create ?(window = default_window) ?(stride = default_stride) config =
  if window <= 0 then invalid_arg "Sampled.create: window must be positive";
  if stride < window then invalid_arg "Sampled.create: stride must be >= window";
  {
    h = Hierarchy.create config;
    window; stride;
    line_mask = lnot (config.Hierarchy.l1_line - 1);
    fp_line_mask =
      lnot
        ((if config.Hierarchy.fp_bypass_l1 then config.Hierarchy.l2_line
          else config.Hierarchy.l1_line)
        - 1);
    last_line = -1;
    pos = 0; total = 0;
  }

let hierarchy t = t.h

let access t ~addr ~size ~is_float =
  let p = t.pos in
  t.pos <- (let p' = p + 1 in if p' = t.stride then 0 else p');
  t.total <- t.total + 1;
  (* the line tag of a single-line access, disambiguated by bank (an
     FP access under L1 bypass lives on L2's coarser lines);
     multi-line accesses get tag -1 and never hit the memo *)
  let mask = if is_float then t.fp_line_mask else t.line_mask in
  let base = addr land mask in
  let line =
    if (addr + size - 1) land mask = base then
      (base lsl 1) lor (if is_float then 1 else 0)
    else -1
  in
  if p < t.window then begin
    t.last_line <- line;
    ignore (Hierarchy.access t.h ~addr ~size ~is_float)
  end
  else if (* warm: a repeat of the just-touched line cannot change
             eviction order — it is already resident and most-recent
             in its set *)
          line >= 0 && line = t.last_line then ()
  else begin
    t.last_line <- line;
    Hierarchy.warm t.h ~addr ~size ~is_float
  end

(* Drain ring events [lo, hi) by slicing the batch into period
   segments: each slice falls entirely inside the detailed or warm
   segment of the current period and is handled wholesale —
   {!Hierarchy.drain_quiet} or {!Hierarchy.drain_warm}. The per-access
   warm memo lives in the hierarchy's drain memo here (same tag
   discipline, see [Hierarchy.drain_quiet]), so counters and cache
   state are byte-equal to feeding every event through {!access} —
   pinned by a QCheck property. *)
let drain t (addrs : int array) (metas : int array) lo hi =
  let i = ref lo in
  while !i < hi do
    let p = t.pos in
    let n =
      if p < t.window then begin
        let n = min (hi - !i) (t.window - p) in
        Hierarchy.drain_quiet t.h addrs metas !i (!i + n);
        n
      end
      else begin
        let n = min (hi - !i) (t.stride - p) in
        Hierarchy.drain_warm t.h addrs metas !i (!i + n);
        n
      end
    in
    let p' = p + n in
    t.pos <- (if p' = t.stride then 0 else p');
    t.total <- t.total + n;
    i := !i + n
  done

let total_accesses t = t.total
let recorded_accesses t = Hierarchy.accesses t.h

let scale t =
  let r = Hierarchy.accesses t.h in
  if r = 0 then 1.0 else float_of_int t.total /. float_of_int r

let est t n = int_of_float (Float.round (float_of_int n *. scale t))
let est_l1_misses t = est t (Cache.misses (Hierarchy.l1 t.h))
let est_l2_misses t = est t (Cache.misses (Hierarchy.l2 t.h))
let est_extra_cycles t = est t (Hierarchy.extra_cycles t.h)

(* ------------------------------------------------------------------ *)
(* The fidelity knob                                                   *)
(* ------------------------------------------------------------------ *)

type fidelity = Exact | Sampled of { window : int; stride : int }

let sampled_default =
  Sampled { window = default_window; stride = default_stride }

let fidelity_name = function
  | Exact -> "exact"
  | Sampled { window; stride } -> Printf.sprintf "sampled:%d,%d" window stride

(* A third field was the skip of the removed fast-forward mode: [0]
   still parses (it always meant full warming), anything else gets its
   own message so an old command line fails with the reason. *)
let fidelity_of_string s =
  let bad msg = Error (Printf.sprintf "bad fidelity %S: %s" s msg) in
  let validate window stride =
    if window <= 0 then bad "window must be positive"
    else if stride <= 0 then bad "stride must be positive"
    else if window > stride then bad "window must not exceed stride"
    else Ok (Sampled { window; stride })
  in
  match s with
  | "exact" -> Ok Exact
  | "sampled" -> Ok sampled_default
  | _ when String.length s > 8 && String.sub s 0 8 = "sampled:" -> (
    let spec = String.sub s 8 (String.length s - 8) in
    match List.map int_of_string_opt (String.split_on_char ',' spec) with
    | [ Some window; Some stride ] | [ Some window; Some stride; Some 0 ] ->
      validate window stride
    | [ Some _; Some _; Some _ ] ->
      bad
        "the fast-forward mode (a non-zero SKIP) was removed; use \
         sampled:WINDOW,STRIDE"
    | _ -> bad "expected sampled:WINDOW,STRIDE with integer fields")
  | _ -> bad "expected exact | sampled | sampled:WINDOW,STRIDE"

let of_fidelity config = function
  | Exact -> None
  | Sampled { window; stride } -> Some (create ~window ~stride config)
