type level = L1 | L2 | Mem

type config = {
  l1_size : int;
  l1_line : int;
  l1_assoc : int;
  l2_size : int;
  l2_line : int;
  l2_assoc : int;
  l1_lat : int;
  l2_lat : int;
  mem_lat : int;
  fp_bypass_l1 : bool;
}

let itanium =
  {
    l1_size = 16 * 1024; l1_line = 64; l1_assoc = 4;
    l2_size = 6 * 1024 * 1024; l2_line = 128; l2_assoc = 8;
    l1_lat = 1; l2_lat = 11; mem_lat = 200; fp_bypass_l1 = true;
  }

let small =
  {
    l1_size = 4 * 1024; l1_line = 64; l1_assoc = 2;
    l2_size = 64 * 1024; l2_line = 128; l2_assoc = 4;
    l1_lat = 1; l2_lat = 11; mem_lat = 200; fp_bypass_l1 = true;
  }

type t = {
  cfg : config;
  c1 : Cache.t;
  c2 : Cache.t;
  (* hot-path constants, hoisted out of [cfg]/[c1]/[c2] once *)
  shift1 : int;         (* log2 of the L1 line size *)
  shift2 : int;         (* log2 of the L2 line size *)
  line1 : int;          (* L1 line size in bytes *)
  l2_covers_l1 : bool;  (* l2_line >= l1_line: an L1 line is one L2 probe *)
  fpb : bool;           (* cfg.fp_bypass_l1 *)
  l2_extra : int;       (* max 0 (l2_lat - l1_lat) *)
  mem_extra : int;      (* max 0 (mem_lat - l1_lat) *)
  mutable extra : int;
  mutable n_access : int;
  mutable by_l1 : int;
  mutable by_l2 : int;
  mutable by_mem : int;
  (* drain-loop memo: the previous event's line, as
     [(line_no lsl 1) lor bank] (bank 1 = the event was floating
     point), and the way index where that line now resides in its
     first-level cache. -1 = no memo. Only the batch drains consult it;
     every per-access entry point invalidates it so mixed callers can
     never act on a stale way. *)
  mutable memo_line : int;
  mutable memo_way : int;
  (* PMU sampling in [drain_quiet]: the first-level miss events it has
     counted under [Pmu]'s rule, the count at which the next sample
     fires (max_int: no sampler, never) and the sampler itself *)
  mutable misses : int;
  mutable next_sample : int;
  mutable sample_period : int;
  mutable on_sample : int -> int -> unit;
}

let create ?kernel cfg =
  let c1 =
    Cache.create ~name:"L1D" ~size:cfg.l1_size ~line:cfg.l1_line
      ~assoc:cfg.l1_assoc
  in
  let c2 =
    Cache.create ~name:"L2" ~size:cfg.l2_size ~line:cfg.l2_line
      ~assoc:cfg.l2_assoc
  in
  (match kernel with
  | Some k ->
    Cache.set_kernel c1 k;
    Cache.set_kernel c2 k
  | None -> ());
  {
    cfg; c1; c2;
    shift1 = Cache.line_shift c1;
    shift2 = Cache.line_shift c2;
    line1 = Cache.line_size c1;
    l2_covers_l1 = Cache.line_size c2 >= Cache.line_size c1;
    fpb = cfg.fp_bypass_l1;
    l2_extra = max 0 (cfg.l2_lat - cfg.l1_lat);
    mem_extra = max 0 (cfg.mem_lat - cfg.l1_lat);
    extra = 0; n_access = 0; by_l1 = 0; by_l2 = 0; by_mem = 0;
    memo_line = -1; memo_way = 0;
    misses = 0; next_sample = max_int; sample_period = 1;
    on_sample = (fun _ _ -> ());
  }

let set_sampler t ~period ~first f =
  if period <= 0 || first <= 0 then
    invalid_arg "Hierarchy.set_sampler: period and first must be positive";
  t.sample_period <- period;
  t.next_sample <- t.misses + first;
  t.on_sample <- f

let miss_events t = t.misses

(* [drain_quiet]'s PMU step for the event with meta word [m]: count
   [n] first-level misses (0 or 1) and hand the event to the sampler
   when the count reaches the next sample *)
let[@inline] count_miss t m n latency =
  let c = t.misses + n in
  t.misses <- c;
  if c = t.next_sample then begin
    t.on_sample (m asr 6) latency;
    t.next_sample <- c + t.sample_period
  end

(* The L1->L2 descent of one missing L1 line: one L2 request for the
   L2 line containing it (a single probe whenever the L2 line is at
   least as large as the L1 line — always, on real geometries — with a
   range loop for the degenerate smaller-L2-line case). [k2] selects
   recorded or warming probes. *)
let descend_with t (k2 : int -> int) l1_base : bool =
  if t.l2_covers_l1 then k2 l1_base land 1 <> 0
  else begin
    let sh = t.shift2 in
    let first = l1_base lsr sh and last = (l1_base + t.line1 - 1) lsr sh in
    let all = ref true in
    for l = first to last do
      if k2 (l lsl sh) land 1 = 0 then all := false
    done;
    !all
  end

(* The one and only implementation of the service/descent rule, shared
   by the recorded path ([access], probing through
   [Cache.k_access]) and the warming path ([warm], probing through
   [Cache.k_touch]) so the two can never drift:

   - a floating-point access under the Itanium bypass is served by L2
     (its first level); L2-missing lines go to memory;
   - anything else touches every L1 line it covers, and only the lines
     that miss in L1 descend — each missing L1 line is a separate L2
     request for the L2 line containing it; L1-hitting lines never
     reach L2, so partial hits neither inflate L2 traffic nor perturb
     its LRU state.

   Returns the deepest level any covered line had to go to. *)
let serve_with t (k1 : int -> int) (k2 : int -> int) ~addr ~size ~is_float :
    level =
  if is_float && t.fpb then begin
    let sh = t.shift2 in
    let first = addr lsr sh and last = (addr + max size 1 - 1) lsr sh in
    let all = ref true in
    for l = first to last do
      if k2 (l lsl sh) land 1 = 0 then all := false
    done;
    if !all then L2 else Mem
  end
  else begin
    let sh = t.shift1 in
    let first = addr lsr sh and last = (addr + max size 1 - 1) lsr sh in
    if first = last then begin
      (* the common single-line access: no range bookkeeping *)
      if k1 addr land 1 = 1 then L1
      else if descend_with t k2 (first lsl sh) then L2
      else Mem
    end
    else begin
      let any_l1_miss = ref false and all_l2_hit = ref true in
      for l = first to last do
        if k1 (l lsl sh) land 1 = 0 then begin
          any_l1_miss := true;
          if not (descend_with t k2 (l lsl sh)) then all_l2_hit := false
        end
      done;
      if not !any_l1_miss then L1
      else if !all_l2_hit then L2
      else Mem
    end
  end

let access t ~addr ~size ~write:_ ~is_float =
  t.memo_line <- -1;
  t.n_access <- t.n_access + 1;
  match
    serve_with t t.c1.Cache.k_access t.c2.Cache.k_access ~addr ~size ~is_float
  with
  | L1 ->
    t.by_l1 <- t.by_l1 + 1;
    (t.cfg.l1_lat, L1)
  | L2 ->
    t.by_l2 <- t.by_l2 + 1;
    t.extra <- t.extra + t.l2_extra;
    (t.cfg.l2_lat, L2)
  | Mem ->
    t.by_mem <- t.by_mem + 1;
    t.extra <- t.extra + t.mem_extra;
    (t.cfg.mem_lat, Mem)

let warm t ~addr ~size ~write:_ ~is_float =
  t.memo_line <- -1;
  ignore
    (serve_with t t.c1.Cache.k_touch t.c2.Cache.k_touch ~addr ~size ~is_float)

let correct_skip t ~skipped ~observed =
  t.memo_line <- -1;
  Cache.correct_skip t.c1 ~skipped ~observed;
  Cache.correct_skip t.c2 ~skipped ~observed

(* ------------------------------------------------------------------ *)
(* Batch drains                                                        *)
(* ------------------------------------------------------------------ *)

(* Drain ring events [lo, hi) with [access] semantics. One call
   replaces [hi - lo] [access] calls: the config constants, kernel
   closures and counters live in locals for the whole batch, and an
   event landing on the same line as the previous one skips the probe —
   the line is resident and most-recent in its set, so a full probe
   would hit at [memo_way]; the memo path replicates that probe's exact
   counter, tick and stamp effects. Counters after the drain are
   byte-equal to feeding every event through [access] (a QCheck
   property pins this).

   The same loop is the PMU: every first-level miss event (an L2 or
   memory access for an integer event, a memory access for a float one,
   as [Pmu.record] decides) bumps [misses], and the one whose count
   reaches [next_sample] goes to the sampler with its latency. Without
   a sampler that is one increment and one compare per miss. *)
(* The single-line probes below are the generic kernel's state machine
   (cache.ml) transcribed inline: same tick-first ordering, same
   while-scan, same first-minimal victim, same ins-sketch bump, so the
   drained cache state is bit-identical to what [Cache.k_access] would
   have produced — the native compiler cannot inline the kernel
   closures into this loop, and the indirect call per probe is the
   dominant per-event cost the ring was built to shed. Multi-line
   events (rare) still go through the kernel closures; the cached
   tick/hit/miss locals are written back around those calls. *)
let drain_quiet t (addrs : int array) (metas : int array) lo hi =
  let c1 = t.c1 and c2 = t.c2 in
  let k1 = c1.Cache.k_access and k2 = c2.Cache.k_access in
  let tags1 = c1.Cache.tags and stamps1 = c1.Cache.stamps
  and ins1 = c1.Cache.ins in
  let assoc1 = c1.Cache.assoc and nsets1 = c1.Cache.nsets
  and smask1 = c1.Cache.set_mask and sshift1 = c1.Cache.set_shift in
  let tags2 = c2.Cache.tags and stamps2 = c2.Cache.stamps
  and ins2 = c2.Cache.ins in
  let assoc2 = c2.Cache.assoc and nsets2 = c2.Cache.nsets
  and smask2 = c2.Cache.set_mask and sshift2 = c2.Cache.set_shift in
  let sh1 = t.shift1 and sh2 = t.shift2 in
  let fpb = t.fpb and l2c = t.l2_covers_l1 in
  let l2_extra = t.l2_extra and mem_extra = t.mem_extra in
  let by_l1 = ref t.by_l1 and by_l2 = ref t.by_l2 and by_mem = ref t.by_mem in
  let extra = ref t.extra in
  let memo_line = ref t.memo_line and memo_way = ref t.memo_way in
  let tick1 = ref c1.Cache.tick and hits1 = ref c1.Cache.hits
  and miss1 = ref c1.Cache.misses in
  let tick2 = ref c2.Cache.tick and hits2 = ref c2.Cache.hits
  and miss2 = ref c2.Cache.misses in
  (* write the cached counters back before any kernel-closure call and
     reload after: the closures update the records directly *)
  let sync () =
    c1.Cache.tick <- !tick1; c1.Cache.hits <- !hits1;
    c1.Cache.misses <- !miss1;
    c2.Cache.tick <- !tick2; c2.Cache.hits <- !hits2;
    c2.Cache.misses <- !miss2
  in
  let reload () =
    tick1 := c1.Cache.tick; hits1 := c1.Cache.hits;
    miss1 := c1.Cache.misses;
    tick2 := c2.Cache.tick; hits2 := c2.Cache.hits;
    miss2 := c2.Cache.misses
  in
  for k = lo to hi - 1 do
    let addr = Array.unsafe_get addrs k in
    let m = Array.unsafe_get metas k in
    let sz = (m lsr 2) land 15 in
    let sz = if sz = 0 then 1 else sz in
    if m land 1 = 1 && fpb then begin
      (* FP under the bypass: L2 is the first level *)
      let first = addr lsr sh2 and last = (addr + sz - 1) lsr sh2 in
      if first = last then begin
        let ltag = (first lsl 1) lor 1 in
        if ltag = !memo_line then begin
          let tk = !tick2 + 1 in
          tick2 := tk;
          Array.unsafe_set stamps2 !memo_way tk;
          incr hits2;
          incr by_l2;
          extra := !extra + l2_extra
        end
        else begin
          (* inline L2 probe of line [first] *)
          let set, tag =
            if sshift2 >= 0 then (first land smask2, first lsr sshift2)
            else (first mod nsets2, first / nsets2)
          in
          let base = set * assoc2 in
          let lim = base + assoc2 in
          let tk = !tick2 + 1 in
          tick2 := tk;
          let i = ref base in
          while !i < lim && Array.unsafe_get tags2 !i <> tag do incr i done;
          memo_line := ltag;
          if !i < lim then begin
            Array.unsafe_set stamps2 !i tk;
            incr hits2;
            memo_way := !i;
            incr by_l2;
            extra := !extra + l2_extra
          end
          else begin
            incr miss2;
            Array.unsafe_set ins2 set (Array.unsafe_get ins2 set + 1);
            let victim = ref base in
            for w = base + 1 to lim - 1 do
              if Array.unsafe_get stamps2 w < Array.unsafe_get stamps2 !victim
              then victim := w
            done;
            Array.unsafe_set tags2 !victim tag;
            Array.unsafe_set stamps2 !victim tk;
            memo_way := !victim;
            incr by_mem;
            extra := !extra + mem_extra;
            count_miss t m 1 t.cfg.mem_lat
          end
        end
      end
      else begin
        memo_line := -1;
        sync ();
        let all = ref true in
        for l = first to last do
          if k2 (l lsl sh2) land 1 = 0 then all := false
        done;
        reload ();
        if !all then begin
          incr by_l2;
          extra := !extra + l2_extra
        end
        else begin
          incr by_mem;
          extra := !extra + mem_extra;
          count_miss t m 1 t.cfg.mem_lat
        end
      end
    end
    else begin
      let first = addr lsr sh1 and last = (addr + sz - 1) lsr sh1 in
      if first = last then begin
        (* the bank bit mirrors [Sampled]'s memo tags: a float access
           keeps bit 0 set even without the bypass, so the warm memo
           decisions of the batched and per-access sampled paths agree
           event for event *)
        let ltag = (first lsl 1) lor (m land 1) in
        if ltag = !memo_line then begin
          let tk = !tick1 + 1 in
          tick1 := tk;
          Array.unsafe_set stamps1 !memo_way tk;
          incr hits1;
          incr by_l1
        end
        else begin
          (* inline L1 probe of line [first] *)
          let set, tag =
            if sshift1 >= 0 then (first land smask1, first lsr sshift1)
            else (first mod nsets1, first / nsets1)
          in
          let base = set * assoc1 in
          let lim = base + assoc1 in
          let tk = !tick1 + 1 in
          tick1 := tk;
          let i = ref base in
          while !i < lim && Array.unsafe_get tags1 !i <> tag do incr i done;
          memo_line := ltag;
          if !i < lim then begin
            Array.unsafe_set stamps1 !i tk;
            incr hits1;
            memo_way := !i;
            incr by_l1
          end
          else begin
            incr miss1;
            Array.unsafe_set ins1 set (Array.unsafe_get ins1 set + 1);
            let victim = ref base in
            for w = base + 1 to lim - 1 do
              if Array.unsafe_get stamps1 w < Array.unsafe_get stamps1 !victim
              then victim := w
            done;
            Array.unsafe_set tags1 !victim tag;
            Array.unsafe_set stamps1 !victim tk;
            memo_way := !victim;
            (* the missing L1 line descends to L2 *)
            if l2c then begin
              (* inline L2 probe of the covering L2 line *)
              let l2line = (first lsl sh1) lsr sh2 in
              let set, tag =
                if sshift2 >= 0 then (l2line land smask2, l2line lsr sshift2)
                else (l2line mod nsets2, l2line / nsets2)
              in
              let base = set * assoc2 in
              let lim = base + assoc2 in
              let tk = !tick2 + 1 in
              tick2 := tk;
              let j = ref base in
              while !j < lim && Array.unsafe_get tags2 !j <> tag do incr j done;
              if !j < lim then begin
                Array.unsafe_set stamps2 !j tk;
                incr hits2;
                incr by_l2;
                extra := !extra + l2_extra;
                count_miss t m (1 - (m land 1)) t.cfg.l2_lat
              end
              else begin
                incr miss2;
                Array.unsafe_set ins2 set (Array.unsafe_get ins2 set + 1);
                let victim = ref base in
                for w = base + 1 to lim - 1 do
                  if
                    Array.unsafe_get stamps2 w
                    < Array.unsafe_get stamps2 !victim
                  then victim := w
                done;
                Array.unsafe_set tags2 !victim tag;
                Array.unsafe_set stamps2 !victim tk;
                incr by_mem;
                extra := !extra + mem_extra;
                count_miss t m 1 t.cfg.mem_lat
              end
            end
            else begin
              sync ();
              let served = descend_with t k2 (first lsl sh1) in
              reload ();
              if served then begin
                incr by_l2;
                extra := !extra + l2_extra;
                count_miss t m (1 - (m land 1)) t.cfg.l2_lat
              end
              else begin
                incr by_mem;
                extra := !extra + mem_extra;
                count_miss t m 1 t.cfg.mem_lat
              end
            end
          end
        end
      end
      else begin
        memo_line := -1;
        sync ();
        let any_miss = ref false and all2 = ref true in
        for l = first to last do
          if k1 (l lsl sh1) land 1 = 0 then begin
            any_miss := true;
            if not (descend_with t k2 (l lsl sh1)) then all2 := false
          end
        done;
        reload ();
        if not !any_miss then incr by_l1
        else if !all2 then begin
          incr by_l2;
          extra := !extra + l2_extra;
          count_miss t m (1 - (m land 1)) t.cfg.l2_lat
        end
        else begin
          incr by_mem;
          extra := !extra + mem_extra;
          count_miss t m 1 t.cfg.mem_lat
        end
      end
    end
  done;
  t.n_access <- t.n_access + (hi - lo);
  t.by_l1 <- !by_l1;
  t.by_l2 <- !by_l2;
  t.by_mem <- !by_mem;
  t.extra <- !extra;
  t.memo_line <- !memo_line;
  t.memo_way <- !memo_way;
  c1.Cache.tick <- !tick1;
  c1.Cache.hits <- !hits1;
  c1.Cache.misses <- !miss1;
  c2.Cache.tick <- !tick2;
  c2.Cache.hits <- !hits2;
  c2.Cache.misses <- !miss2

(* Drain ring events [lo, hi) with warming semantics, replicating the
   per-access sampled warm path exactly: an event whose single line
   equals the previous event's is a complete no-op (the line is
   resident and most-recent — not even the tick moves, matching
   [Sampled.access]'s memo), everything else moves tag/LRU state
   through [Cache.k_touch] with no counter recorded. *)
let drain_warm t (addrs : int array) (metas : int array) lo hi =
  let c1 = t.c1 and c2 = t.c2 in
  let k1 = c1.Cache.k_touch and k2 = c2.Cache.k_touch in
  let sh1 = t.shift1 and sh2 = t.shift2 in
  let fpb = t.fpb in
  let memo_line = ref t.memo_line and memo_way = ref t.memo_way in
  for k = lo to hi - 1 do
    let addr = Array.unsafe_get addrs k in
    let m = Array.unsafe_get metas k in
    let sz = (m lsr 2) land 15 in
    let sz = if sz = 0 then 1 else sz in
    if m land 1 = 1 && fpb then begin
      let first = addr lsr sh2 and last = (addr + sz - 1) lsr sh2 in
      if first = last then begin
        let ltag = (first lsl 1) lor 1 in
        if ltag <> !memo_line then begin
          let r = k2 addr in
          memo_line := ltag;
          memo_way := r lsr 1
        end
      end
      else begin
        memo_line := -1;
        for l = first to last do
          ignore (k2 (l lsl sh2))
        done
      end
    end
    else begin
      let first = addr lsr sh1 and last = (addr + sz - 1) lsr sh1 in
      if first = last then begin
        let ltag = (first lsl 1) lor (m land 1) in
        if ltag <> !memo_line then begin
          let r = k1 addr in
          memo_line := ltag;
          memo_way := r lsr 1;
          if r land 1 = 0 then
            ignore (descend_with t k2 (first lsl sh1))
        end
      end
      else begin
        memo_line := -1;
        for l = first to last do
          if k1 (l lsl sh1) land 1 = 0 then
            ignore (descend_with t k2 (l lsl sh1))
        done
      end
    end
  done;
  t.memo_line <- !memo_line;
  t.memo_way <- !memo_way

let extra_cycles t = t.extra
let l1 t = t.c1
let l2 t = t.c2
let accesses t = t.n_access
let level_counts t = (t.by_l1, t.by_l2, t.by_mem)
