(* Sampled cache simulation: detailed windows plus functional warming,
   mirroring the paper's PMU-based collection — the hardware never
   observes every access either, it samples events and extrapolates.

   Each period of [stride] accesses is laid out as

     [0, window)             detailed: full recorded simulation
     [window, window+skip)   skip: counted but otherwise untouched
     [window+skip, stride)   warm: cache state updated, not recorded

   [skip] defaults to 0: every access outside the detailed window still
   moves tag/LRU state ({!Hierarchy.warm}), only the counter work is
   sampled. A non-zero [skip] is the fast-forward mode the superblock
   VM's bulk hook accelerates to O(1) per block chain; its cold-start
   bias — a frozen skip segment leaves the large, slow-converging L2
   systematically stale (with 75% of accesses skipped, mcf's L2 miss
   rate came out 2.5pp low and sphinx's near-zero speedup flipped
   sign) — is corrected before measurement resumes: while simulating,
   each cache keeps a per-set count of line insertions (its footprint
   sketch), and at the first simulated access after a skip segment the
   hierarchy extrapolates that per-set fill rate over the skipped
   accesses, evicting the corresponding number of LRU lines per set in
   favour of synthetic never-hit tags ({!Hierarchy.correct_skip}). The
   detailed window that follows then starts from a state that has aged
   as if the skipped traffic had been replayed, which is what lets a
   skipping configuration pass the roster accuracy gate.

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
  skip_end : int;  (* window + skip; [window, skip_end) is the skip segment *)
  line_mask : int;      (* of the integer first-level (L1) line *)
  fp_line_mask : int;   (* of the FP first-level line (L2 under bypass) *)
  mutable last_line : int;  (* line tag of the previous access; -1 = none *)
  mutable pos : int;    (* position within the current period *)
  mutable total : int;  (* every access, recorded or not *)
  mutable skipped_pending : int;
      (* skip-segment accesses not yet charged by a correction *)
  mutable observed : int;
      (* simulated (detailed or warm) accesses feeding the footprint
         sketch since the last correction — the denominator of the
         extrapolated fill rate *)
}

let default_window = 4096
let default_stride = 32768

let create ?(window = default_window) ?(stride = default_stride) ?(skip = 0)
    config =
  if window <= 0 then invalid_arg "Sampled.create: window must be positive";
  if skip < 0 then invalid_arg "Sampled.create: skip must be >= 0";
  if stride < window + skip then
    invalid_arg "Sampled.create: stride must be >= window + skip";
  {
    h = Hierarchy.create config;
    window; stride;
    skip_end = window + skip;
    line_mask = lnot (config.Hierarchy.l1_line - 1);
    fp_line_mask =
      lnot
        ((if config.Hierarchy.fp_bypass_l1 then config.Hierarchy.l2_line
          else config.Hierarchy.l1_line)
        - 1);
    last_line = -1;
    pos = 0; total = 0;
    skipped_pending = 0;
    observed = 0;
  }

let hierarchy t = t.h

(* Charge pending skipped accesses to the cache state. Called at the
   first simulated access after a skip segment, before that access is
   processed — the same point in the stream regardless of whether
   accesses arrive one at a time or in ring batches, which is what
   keeps the two paths byte-equal. The correction invalidates both
   memos: a synthetic insertion can evict the memoized line. *)
let apply_correction t =
  if t.skipped_pending > 0 && t.observed > 0 then begin
    Hierarchy.correct_skip t.h ~skipped:t.skipped_pending ~observed:t.observed;
    t.skipped_pending <- 0;
    t.observed <- 0;
    t.last_line <- -1
  end

let access t ~addr ~size ~is_float =
  let p = t.pos in
  t.pos <- (let p' = p + 1 in if p' = t.stride then 0 else p');
  t.total <- t.total + 1;
  if p >= t.window && p < t.skip_end then
    t.skipped_pending <- t.skipped_pending + 1
  else begin
    apply_correction t;
    t.observed <- t.observed + 1;
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
  end

let try_advance t n =
  let p = t.pos in
  if n > 0 && p >= t.window && t.skip_end - p >= n then begin
    (* all [n] accesses fall inside the skip segment: consuming them in
       one step is indistinguishable from [n] calls to [access] (the
       memo survives — skipped accesses change no cache state until the
       correction at the next simulated access charges them) *)
    let p' = p + n in
    t.pos <- (if p' = t.stride then 0 else p');
    t.total <- t.total + n;
    t.skipped_pending <- t.skipped_pending + n;
    true
  end
  else false

let bulk_ready t ~pending n =
  n > 0
  &&
  let p = (t.pos + pending) mod t.stride in
  p >= t.window && t.skip_end - p >= n

(* Drain ring events [lo, hi) by slicing the batch into period
   segments: each slice falls entirely inside the detailed, skip or
   warm segment of the current period and is handled wholesale —
   {!Hierarchy.drain_quiet}, a pending-skip bump, or
   {!Hierarchy.drain_warm}. The per-access warm memo lives in the
   hierarchy's drain memo here (same tag discipline, see
   [Hierarchy.drain_quiet]), and corrections fire at the same stream
   positions as in {!access}, so counters and cache state are
   byte-equal to feeding every event through {!access} — pinned by a
   QCheck property. *)
let drain t (addrs : int array) (metas : int array) lo hi =
  let i = ref lo in
  while !i < hi do
    let p = t.pos in
    let n =
      if p < t.window then begin
        let n = min (hi - !i) (t.window - p) in
        apply_correction t;
        Hierarchy.drain_quiet t.h addrs metas !i (!i + n);
        t.observed <- t.observed + n;
        n
      end
      else if p < t.skip_end then begin
        let n = min (hi - !i) (t.skip_end - p) in
        t.skipped_pending <- t.skipped_pending + n;
        n
      end
      else begin
        let n = min (hi - !i) (t.stride - p) in
        apply_correction t;
        Hierarchy.drain_warm t.h addrs metas !i (!i + n);
        t.observed <- t.observed + n;
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

type fidelity = Exact | Sampled of { window : int; stride : int; skip : int }

let sampled_default =
  Sampled { window = default_window; stride = default_stride; skip = 0 }

let fidelity_name = function
  | Exact -> "exact"
  | Sampled { window; stride; skip = 0 } ->
    Printf.sprintf "sampled:%d,%d" window stride
  | Sampled { window; stride; skip } ->
    Printf.sprintf "sampled:%d,%d,%d" window stride skip

(* The CLI-facing parser is stricter than [create]: it also rejects a
   skip that swallows the whole non-window remainder (K >= S - W with
   K > 0), because such a configuration never warms the cache between
   skip and the next detailed window and its bias is exactly what the
   correction cannot license without at least some observed warm
   traffic. [create] stays permissive (stride >= window + skip) so the
   degenerate full-skip setup remains constructible programmatically —
   the bias experiments in test_sampled.ml depend on it. *)
let fidelity_of_string s =
  let bad msg = Error (Printf.sprintf "bad fidelity %S: %s" s msg) in
  let validate window stride skip =
    if window <= 0 then bad "window must be positive"
    else if stride <= 0 then bad "stride must be positive"
    else if window > stride then bad "window must not exceed stride"
    else if skip < 0 then bad "skip must be >= 0"
    else if skip > 0 && skip >= stride - window then
      bad "skip must leave a non-empty warm segment (skip < stride - window)"
    else Ok (Sampled { window; stride; skip })
  in
  match s with
  | "exact" -> Ok Exact
  | "sampled" -> Ok sampled_default
  | _ when String.length s > 8 && String.sub s 0 8 = "sampled:" -> (
    let spec = String.sub s 8 (String.length s - 8) in
    match List.map int_of_string_opt (String.split_on_char ',' spec) with
    | [ Some window; Some stride ] -> validate window stride 0
    | [ Some window; Some stride; Some skip ] -> validate window stride skip
    | _ -> bad "expected sampled:WINDOW,STRIDE[,SKIP] with integer fields")
  | _ -> bad "expected exact | sampled | sampled:WINDOW,STRIDE[,SKIP]"

let of_fidelity config = function
  | Exact -> None
  | Sampled { window; stride; skip } ->
    Some (create ~window ~stride ~skip config)
