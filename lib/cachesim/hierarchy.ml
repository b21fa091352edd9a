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

let create cfg =
  let c1 =
    Cache.create ~name:"L1D" ~size:cfg.l1_size ~line:cfg.l1_line
      ~assoc:cfg.l1_assoc
  in
  let c2 =
    Cache.create ~name:"L2" ~size:cfg.l2_size ~line:cfg.l2_line
      ~assoc:cfg.l2_assoc
  in
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
   range loop for the degenerate smaller-L2-line case). [count] selects
   recorded or warming probes. *)
let descend t ~count l1_base : bool =
  if t.l2_covers_l1 then Cache.probe t.c2 ~count l1_base >= 0
  else begin
    let sh = t.shift2 in
    let first = l1_base lsr sh and last = (l1_base + t.line1 - 1) lsr sh in
    let all = ref true in
    for l = first to last do
      if Cache.probe t.c2 ~count (l lsl sh) < 0 then all := false
    done;
    !all
  end

(* The one and only implementation of the service/descent rule, shared
   by the recorded path ([access], [~count:true]) and the warming path
   ([warm], [~count:false]) so the two can never drift:

   - a floating-point access under the Itanium bypass is served by L2
     (its first level); L2-missing lines go to memory;
   - anything else touches every L1 line it covers, and only the lines
     that miss in L1 descend — each missing L1 line is a separate L2
     request for the L2 line containing it; L1-hitting lines never
     reach L2, so partial hits neither inflate L2 traffic nor perturb
     its LRU state.

   Returns the deepest level any covered line had to go to. *)
let serve t ~count ~addr ~size ~is_float : level =
  if is_float && t.fpb then begin
    let sh = t.shift2 in
    let first = addr lsr sh and last = (addr + max size 1 - 1) lsr sh in
    let all = ref true in
    for l = first to last do
      if Cache.probe t.c2 ~count (l lsl sh) < 0 then all := false
    done;
    if !all then L2 else Mem
  end
  else begin
    let sh = t.shift1 in
    let first = addr lsr sh and last = (addr + max size 1 - 1) lsr sh in
    let any_l1_miss = ref false and all_l2_hit = ref true in
    for l = first to last do
      if Cache.probe t.c1 ~count (l lsl sh) < 0 then begin
        any_l1_miss := true;
        if not (descend t ~count (l lsl sh)) then all_l2_hit := false
      end
    done;
    if not !any_l1_miss then L1
    else if !all_l2_hit then L2
    else Mem
  end

let access t ~addr ~size ~is_float =
  t.memo_line <- -1;
  t.n_access <- t.n_access + 1;
  match serve t ~count:true ~addr ~size ~is_float with
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

let warm t ~addr ~size ~is_float =
  t.memo_line <- -1;
  ignore (serve t ~count:false ~addr ~size ~is_float)

(* ------------------------------------------------------------------ *)
(* Batch drains                                                        *)
(* ------------------------------------------------------------------ *)

(* [Cache.probe] of line number [line] (in the cache's own line size),
   over the arrays, geometry and tick/hit/miss refs a drain loop has
   hoisted out of the [Cache.t]; same result encoding. It has to live
   here: [Cache.probe] called from the drain loops would be a
   cross-module call, which the native compiler without flambda never
   inlines (and dune's dev profile compiles library modules [-opaque],
   so it would not even be a direct call), and that call per event is
   the cost the ring was built to shed. Same tick-first ordering, way
   scan and first-minimal victim, so the drained cache state is
   bit-identical to per-access probing. *)
let[@inline] drain_probe tags stamps assoc nsets smask sshift tick hits misses
    line =
  let set, tag =
    if sshift >= 0 then (line land smask, line lsr sshift)
    else (line mod nsets, line / nsets)
  in
  let base = set * assoc in
  let lim = base + assoc in
  let tk = !tick + 1 in
  tick := tk;
  let i = ref base in
  while !i < lim && Array.unsafe_get tags !i <> tag do incr i done;
  if !i < lim then begin
    Array.unsafe_set stamps !i tk;
    incr hits;
    !i
  end
  else begin
    incr misses;
    let v = ref base in
    for w = base + 1 to lim - 1 do
      if Array.unsafe_get stamps w < Array.unsafe_get stamps !v then v := w
    done;
    Array.unsafe_set tags !v tag;
    Array.unsafe_set stamps !v tk;
    lnot !v
  end

(* Drain ring events [lo, hi) with [access] semantics. One call
   replaces [hi - lo] [access] calls: the config constants, cache
   arrays and counters live in locals for the whole batch, single-line
   events probe through the inlined [drain_probe], and an event landing
   on the same line as the previous one skips the probe — the line is
   resident and most-recent in its set, so a full probe would hit at
   [memo_way]; the memo path replicates that probe's exact counter,
   tick and stamp effects. Multi-line events (rare) go through [serve],
   with the cached tick/hit/miss locals written back around the call.
   Counters after the drain are byte-equal to feeding every event
   through [access] (a QCheck property pins this).

   The same loop is the PMU: every first-level miss event (an L2 or
   memory access for an integer event, a memory access for a float one,
   as [Pmu.record] decides) bumps [misses], and the one whose count
   reaches [next_sample] goes to the sampler with its latency. Without
   a sampler that is one increment and one compare per miss.

   The FP-bypass and integer paths stay separate branches, each with
   its own line split: picking the cache per event and sharing one
   path costs a measurable share of the per-event time. *)
let drain_quiet t (addrs : int array) (metas : int array) lo hi =
  let c1 = t.c1 and c2 = t.c2 in
  let tags1 = c1.Cache.tags and stamps1 = c1.Cache.stamps in
  let assoc1 = c1.Cache.assoc and nsets1 = c1.Cache.nsets
  and smask1 = c1.Cache.set_mask and sshift1 = c1.Cache.set_shift in
  let tags2 = c2.Cache.tags and stamps2 = c2.Cache.stamps in
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
  (* write the cached counters back before a [serve]/[descend] call and
     reload after: those probe through the records directly *)
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
      let first = addr lsr sh2 in
      if first = (addr + sz - 1) lsr sh2 then begin
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
          let r =
            drain_probe tags2 stamps2 assoc2 nsets2 smask2 sshift2 tick2
              hits2 miss2 first
          in
          memo_line := ltag;
          if r >= 0 then begin
            memo_way := r;
            incr by_l2;
            extra := !extra + l2_extra
          end
          else begin
            memo_way := lnot r;
            incr by_mem;
            extra := !extra + mem_extra;
            count_miss t m 1 t.cfg.mem_lat
          end
        end
      end
      else begin
        memo_line := -1;
        sync ();
        let served = serve t ~count:true ~addr ~size:sz ~is_float:true in
        reload ();
        if served = L2 then begin
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
      let first = addr lsr sh1 in
      if first = (addr + sz - 1) lsr sh1 then begin
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
          let r =
            drain_probe tags1 stamps1 assoc1 nsets1 smask1 sshift1 tick1
              hits1 miss1 first
          in
          memo_line := ltag;
          if r >= 0 then begin
            memo_way := r;
            incr by_l1
          end
          else begin
            memo_way := lnot r;
            (* the missing L1 line descends to L2 *)
            let served =
              if l2c then
                drain_probe tags2 stamps2 assoc2 nsets2 smask2 sshift2
                  tick2 hits2 miss2 ((first lsl sh1) lsr sh2)
                >= 0
              else begin
                sync ();
                let s = descend t ~count:true (first lsl sh1) in
                reload ();
                s
              end
            in
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
      else begin
        memo_line := -1;
        sync ();
        let served =
          serve t ~count:true ~addr ~size:sz ~is_float:(m land 1 = 1)
        in
        reload ();
        match served with
        | L1 -> incr by_l1
        | L2 ->
          incr by_l2;
          extra := !extra + l2_extra;
          count_miss t m (1 - (m land 1)) t.cfg.l2_lat
        | Mem ->
          incr by_mem;
          extra := !extra + mem_extra;
          count_miss t m 1 t.cfg.mem_lat
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
   through [drain_probe] (or [serve ~count:false] for multi-line
   events) with no counter recorded: the probes' hits and misses land
   in one throwaway ref. *)
let drain_warm t (addrs : int array) (metas : int array) lo hi =
  let c1 = t.c1 and c2 = t.c2 in
  let tags1 = c1.Cache.tags and stamps1 = c1.Cache.stamps in
  let assoc1 = c1.Cache.assoc and nsets1 = c1.Cache.nsets
  and smask1 = c1.Cache.set_mask and sshift1 = c1.Cache.set_shift in
  let tags2 = c2.Cache.tags and stamps2 = c2.Cache.stamps in
  let assoc2 = c2.Cache.assoc and nsets2 = c2.Cache.nsets
  and smask2 = c2.Cache.set_mask and sshift2 = c2.Cache.set_shift in
  let sh1 = t.shift1 and sh2 = t.shift2 in
  let fpb = t.fpb and l2c = t.l2_covers_l1 in
  let memo_line = ref t.memo_line and memo_way = ref t.memo_way in
  let tick1 = ref c1.Cache.tick and tick2 = ref c2.Cache.tick in
  let junk = ref 0 in
  let sync () = c1.Cache.tick <- !tick1; c2.Cache.tick <- !tick2 in
  let reload () = tick1 := c1.Cache.tick; tick2 := c2.Cache.tick in
  for k = lo to hi - 1 do
    let addr = Array.unsafe_get addrs k in
    let m = Array.unsafe_get metas k in
    let sz = (m lsr 2) land 15 in
    let sz = if sz = 0 then 1 else sz in
    if m land 1 = 1 && fpb then begin
      let first = addr lsr sh2 in
      if first = (addr + sz - 1) lsr sh2 then begin
        let ltag = (first lsl 1) lor 1 in
        if ltag <> !memo_line then begin
          let r =
            drain_probe tags2 stamps2 assoc2 nsets2 smask2 sshift2 tick2
              junk junk first
          in
          memo_line := ltag;
          memo_way := if r >= 0 then r else lnot r
        end
      end
      else begin
        memo_line := -1;
        sync ();
        ignore (serve t ~count:false ~addr ~size:sz ~is_float:true);
        reload ()
      end
    end
    else begin
      let first = addr lsr sh1 in
      if first = (addr + sz - 1) lsr sh1 then begin
        let ltag = (first lsl 1) lor (m land 1) in
        if ltag <> !memo_line then begin
          let r =
            drain_probe tags1 stamps1 assoc1 nsets1 smask1 sshift1 tick1
              junk junk first
          in
          memo_line := ltag;
          if r >= 0 then memo_way := r
          else begin
            memo_way := lnot r;
            if l2c then
              ignore
                (drain_probe tags2 stamps2 assoc2 nsets2 smask2 sshift2
                   tick2 junk junk ((first lsl sh1) lsr sh2))
            else begin
              sync ();
              ignore (descend t ~count:false (first lsl sh1));
              reload ()
            end
          end
        end
      end
      else begin
        memo_line := -1;
        sync ();
        ignore (serve t ~count:false ~addr ~size:sz ~is_float:(m land 1 = 1));
        reload ()
      end
    end
  done;
  c1.Cache.tick <- !tick1;
  c2.Cache.tick <- !tick2;
  t.memo_line <- !memo_line;
  t.memo_way <- !memo_way

let extra_cycles t = t.extra
let l1 t = t.c1
let l2 t = t.c2
let accesses t = t.n_access
let level_counts t = (t.by_l1, t.by_l2, t.by_mem)
