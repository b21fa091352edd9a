(* Cache simulator: single level, hierarchy, PMU sampling. *)

module Cache = Slo_cachesim.Cache
module Hierarchy = Slo_cachesim.Hierarchy
module Pmu = Slo_cachesim.Pmu

let mk ?(size = 1024) ?(line = 64) ?(assoc = 2) () =
  Cache.create ~name:"t" ~size ~line ~assoc

let basic_hit_miss () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "hit same line" true
    (Cache.access c ~addr:63);
  Alcotest.(check bool) "miss next line" false
    (Cache.access c ~addr:64);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let lru_eviction () =
  (* 1024/64/2 => 8 sets; addresses k*512 all map to set 0 *)
  let c = mk () in
  let a0 = 0 and a1 = 512 and a2 = 1024 in
  ignore (Cache.access c ~addr:a0);
  ignore (Cache.access c ~addr:a1);
  ignore (Cache.access c ~addr:a0);
  (* a1 is now LRU; a2 evicts it *)
  ignore (Cache.access c ~addr:a2);
  Alcotest.(check bool) "a0 still resident" true
    (Cache.access c ~addr:a0);
  Alcotest.(check bool) "a1 evicted" false
    (Cache.access c ~addr:a1)

let clear_and_stats () =
  let c = mk () in
  ignore (Cache.access c ~addr:0);
  Cache.clear c;
  Alcotest.(check int) "stats cleared" 0 (Cache.misses c);
  Alcotest.(check bool) "lines invalidated" false
    (Cache.access c ~addr:0)

let bad_config () =
  Alcotest.(check bool) "bad line" true
    (match Cache.create ~name:"x" ~size:100 ~line:48 ~assoc:2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_working_set =
  QCheck.Test.make ~count:(Qcheck_long.iters 100)
    ~name:"working set <= capacity never misses after warmup"
    QCheck.(make Gen.(int_range 1 16))
    (fun nlines ->
      let c = Cache.create ~name:"t" ~size:(16 * 64) ~line:64 ~assoc:16 in
      let addrs = List.init nlines (fun i -> i * 64) in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      Cache.reset_stats c;
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      Cache.misses c = 0)

let prop_miss_bound =
  QCheck.Test.make ~count:(Qcheck_long.iters 100) ~name:"misses <= accesses"
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 100_000))
    (fun addrs ->
      let c = mk () in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      Cache.misses c + Cache.hits c = List.length addrs
      && Cache.misses c <= List.length addrs)

(* A transparent reference model of a set-associative LRU cache, using
   the plain division/modulo set-index arithmetic the production code
   replaced with shift/mask fast paths: per-access results and final
   hit/miss totals must match exactly, on power-of-two and (L2-Itanium-
   style) non-power-of-two set counts alike. A second cache driven by
   [Cache.touch] over the same stream must return the same hits and end
   in the same state, with no hit or miss recorded. *)
module Ref_model = struct
  type t = {
    line : int;
    nsets : int;
    assoc : int;
    sets : (int * int) array array;  (* (tag, stamp); tag -1 = invalid *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~size ~line ~assoc =
    let nsets = size / (line * assoc) in
    { line; nsets; assoc;
      sets = Array.init nsets (fun _ -> Array.make assoc (-1, 0));
      tick = 0; hits = 0; misses = 0 }

  let access t ~addr =
    let line_no = addr / t.line in
    let set = t.sets.(line_no mod t.nsets) in
    let tag = line_no / t.nsets in
    t.tick <- t.tick + 1;
    let way = ref (-1) in
    Array.iteri (fun w (tg, _) -> if tg = tag then way := w) set;
    if !way >= 0 then begin
      set.(!way) <- (tag, t.tick);
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for w = 1 to t.assoc - 1 do
        if snd set.(w) < snd set.(!victim) then victim := w
      done;
      set.(!victim) <- (tag, t.tick);
      false
    end
end

(* random geometries: line always a power of two, set count sometimes
   not (e.g. 6144-set Itanium L2 shape scaled down: 3 sets here) *)
let gen_geometry =
  QCheck.Gen.(
    oneofl [ 16; 32; 64; 128 ] >>= fun line ->
    oneofl [ 1; 2; 3; 4; 8 ] >>= fun assoc ->
    oneofl [ 2; 3; 4; 6; 8; 16 ] >>= fun nsets ->
    return (line, assoc, nsets))

let prop_matches_reference_model =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"shift/mask access matches div/mod reference model"
    QCheck.(
      pair
        (make gen_geometry
           ~print:(fun (l, a, s) -> Printf.sprintf "line=%d assoc=%d nsets=%d" l a s))
        (list_of_size (Gen.int_range 1 300) (int_range 0 1_000_000)))
    (fun ((line, assoc, nsets), addrs) ->
      let size = line * assoc * nsets in
      let c = Cache.create ~name:"t" ~size ~line ~assoc in
      let w = Cache.create ~name:"t" ~size ~line ~assoc in
      let r = Ref_model.create ~size ~line ~assoc in
      List.for_all
        (fun addr ->
          let hit = Ref_model.access r ~addr in
          Cache.access c ~addr = hit && Cache.touch w ~addr = hit)
        addrs
      && Cache.hits c = r.Ref_model.hits
      && Cache.misses c = r.Ref_model.misses
      && w.Cache.tags = c.Cache.tags
      && w.Cache.stamps = c.Cache.stamps
      && w.Cache.tick = c.Cache.tick
      && Cache.hits w = 0
      && Cache.misses w = 0)

(* ------------------------- hierarchy ------------------------- *)

let hierarchy_levels () =
  let h = Hierarchy.create Hierarchy.small in
  let lat1, lvl1 = Hierarchy.access h ~addr:4096 ~size:8 ~is_float:false in
  Alcotest.(check bool) "cold goes to memory" true (lvl1 = Hierarchy.Mem);
  Alcotest.(check int) "mem latency" Hierarchy.small.mem_lat lat1;
  let lat2, lvl2 = Hierarchy.access h ~addr:4096 ~size:8 ~is_float:false in
  Alcotest.(check bool) "then L1 hit" true (lvl2 = Hierarchy.L1);
  Alcotest.(check int) "l1 latency" Hierarchy.small.l1_lat lat2

let fp_bypass () =
  let h = Hierarchy.create Hierarchy.small in
  ignore (Hierarchy.access h ~addr:8192 ~size:8 ~is_float:true);
  let _, lvl = Hierarchy.access h ~addr:8192 ~size:8 ~is_float:true in
  Alcotest.(check bool) "FP served by L2, never L1" true (lvl = Hierarchy.L2);
  (* the same line via an integer access misses L1 (floats bypassed it) *)
  let _, lvl_int =
    Hierarchy.access h ~addr:8192 ~size:8 ~is_float:false
  in
  Alcotest.(check bool) "int access misses L1" true (lvl_int <> Hierarchy.L1)

let straddling_access () =
  let h = Hierarchy.create Hierarchy.small in
  (* 8 bytes across a 64B boundary touches two L1 lines *)
  ignore (Hierarchy.access h ~addr:(4096 + 60) ~size:8 ~is_float:false);
  ignore (Hierarchy.access h ~addr:4096 ~size:1 ~is_float:false);
  ignore (Hierarchy.access h ~addr:(4096 + 64) ~size:1 ~is_float:false);
  let _, l1 = Hierarchy.access h ~addr:4096 ~size:1 ~is_float:false in
  let _, l2 = Hierarchy.access h ~addr:(4096 + 64) ~size:1 ~is_float:false in
  Alcotest.(check bool) "both lines resident" true
    (l1 = Hierarchy.L1 && l2 = Hierarchy.L1)

(* A straddling access that partially hits in L1 must descend only the
   L1-missing lines to L2: the L1-hitting lines are served by L1 and may
   neither inflate L2 traffic nor perturb L2 LRU state.

   Geometry of [small]: 64 B L1 lines, 128 B L2 lines. The access at
   [4216, 4232) covers L1 lines 4160 (resident below) and 4224 (cold),
   which fall into two *different* L2 lines (4096..4223 and 4224..4351),
   so an L2 touch of the hitting line would be visible as an L2 hit. *)
let partial_hit_descends_only_misses () =
  let h = Hierarchy.create Hierarchy.small in
  (* warm L1 line [4160,4223]: L1 miss, descends to L2 (miss), memory *)
  let _, lvl0 = Hierarchy.access h ~addr:4160 ~size:8 ~is_float:false in
  Alcotest.(check bool) "cold warmup from memory" true (lvl0 = Hierarchy.Mem);
  Alcotest.(check int) "warmup: 1 L1 miss" 1 (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "warmup: 1 L2 miss" 1 (Cache.misses (Hierarchy.l2 h));
  (* straddle [4216,4232): L1 line 4160 hits, L1 line 4224 misses; only
     the missing line may reach L2 *)
  let _, lvl = Hierarchy.access h ~addr:4216 ~size:16 ~is_float:false in
  Alcotest.(check bool) "missing line came from memory" true (lvl = Hierarchy.Mem);
  Alcotest.(check int) "L1: one hit (line 4160)" 1 (Cache.hits (Hierarchy.l1 h));
  Alcotest.(check int) "L1: two misses total" 2 (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "L2: hitting L1 line never touched L2" 0
    (Cache.hits (Hierarchy.l2 h));
  Alcotest.(check int) "L2: exactly the missing line descended" 2
    (Cache.misses (Hierarchy.l2 h));
  (* both lines now resident: the same access is a pure L1 hit *)
  let _, lvl2 = Hierarchy.access h ~addr:4216 ~size:16 ~is_float:false in
  Alcotest.(check bool) "now an L1 hit" true (lvl2 = Hierarchy.L1);
  Alcotest.(check int) "no further L2 traffic" 2 (Cache.misses (Hierarchy.l2 h));
  Alcotest.(check int) "no L2 hits either" 0 (Cache.hits (Hierarchy.l2 h))

(* Two missing L1 lines inside the same 128 B L2 line are two separate
   L2 requests (each L1 fill is its own lookup): the first misses, the
   second hits. *)
let per_line_fills_share_l2_line () =
  let h = Hierarchy.create Hierarchy.small in
  (* [4096,4224) covers L1 lines 4096 and 4160, both cold, both inside
     the single L2 line [4096,4223] *)
  let _, lvl = Hierarchy.access h ~addr:4096 ~size:128 ~is_float:false in
  Alcotest.(check bool) "served by memory" true (lvl = Hierarchy.Mem);
  Alcotest.(check int) "two L1 misses" 2 (Cache.misses (Hierarchy.l1 h));
  Alcotest.(check int) "first fill misses L2" 1 (Cache.misses (Hierarchy.l2 h));
  Alcotest.(check int) "second fill hits the just-filled L2 line" 1
    (Cache.hits (Hierarchy.l2 h));
  (* an all-hit straddling access is served entirely by L1 *)
  let _, lvl2 = Hierarchy.access h ~addr:4100 ~size:120 ~is_float:false in
  Alcotest.(check bool) "straddling re-access is L1" true (lvl2 = Hierarchy.L1);
  Alcotest.(check int) "and adds no L2 traffic" 2
    (Cache.misses (Hierarchy.l2 h) + Cache.hits (Hierarchy.l2 h))

(* FP accesses bypass L1: L2 is their first level, and a straddling FP
   access touches every covered L2 line there *)
let fp_straddle_touches_l2_range () =
  let h = Hierarchy.create Hierarchy.small in
  let _, lvl = Hierarchy.access h ~addr:4216 ~size:16 ~is_float:true in
  Alcotest.(check bool) "cold FP from memory" true (lvl = Hierarchy.Mem);
  Alcotest.(check int) "both L2 lines touched" 2 (Cache.misses (Hierarchy.l2 h));
  Alcotest.(check int) "L1 untouched by FP" 0
    (Cache.misses (Hierarchy.l1 h) + Cache.hits (Hierarchy.l1 h));
  let _, lvl2 = Hierarchy.access h ~addr:4216 ~size:16 ~is_float:true in
  Alcotest.(check bool) "warm FP served by L2" true (lvl2 = Hierarchy.L2)

(* ------------------- ring & batched draining ------------------- *)

module Ring = Slo_cachesim.Ring

let ring_meta_roundtrip () =
  List.iter
    (fun (size, write, is_float, iid) ->
      let m = Ring.meta ~size ~write ~is_float ~iid in
      Alcotest.(check int) "size" size (Ring.meta_size m);
      Alcotest.(check bool) "write" write (Ring.meta_write m);
      Alcotest.(check bool) "float" is_float (Ring.meta_float m);
      Alcotest.(check int) "iid" iid (Ring.meta_iid m))
    [ (1, false, false, 0); (8, true, true, 123456); (4, true, false, -1);
      (2, false, true, -7); (8, false, false, max_int lsr 7) ]

let ring_flushes_when_full () =
  let rg = Ring.create ~cap:4 () in
  let batches = ref [] in
  Ring.set_sink rg (fun r ->
      batches := Array.sub r.Ring.addrs 0 r.Ring.len :: !batches);
  for a = 1 to 10 do
    Ring.push rg a (Ring.meta ~size:1 ~write:false ~is_float:false ~iid:0)
  done;
  Ring.flush rg;
  Alcotest.(check int) "tail drained" 0 (Ring.length rg);
  Ring.flush rg;
  Alcotest.(check int) "empty flush is a no-op" 0 (Ring.length rg);
  let seen = List.concat_map Array.to_list (List.rev !batches) in
  Alcotest.(check (list int)) "no event lost or reordered"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] seen

(* The tentpole equivalence: draining ring batches through
   [Hierarchy.drain_quiet] must leave counters AND full cache state
   (tags, LRU stamps, tick) byte-equal to feeding every event
   through [Hierarchy.access], on random geometries (power-of-two
   and odd set counts, FP bypass on and off), random event streams and
   random batch boundaries. *)
let cache_state_eq (a : Cache.t) (b : Cache.t) =
  a.Cache.tags = b.Cache.tags
  && a.Cache.stamps = b.Cache.stamps
  && a.Cache.tick = b.Cache.tick
  && a.Cache.hits = b.Cache.hits
  && a.Cache.misses = b.Cache.misses

let hier_state_eq a b =
  cache_state_eq (Hierarchy.l1 a) (Hierarchy.l1 b)
  && cache_state_eq (Hierarchy.l2 a) (Hierarchy.l2 b)
  && Hierarchy.accesses a = Hierarchy.accesses b
  && Hierarchy.level_counts a = Hierarchy.level_counts b
  && Hierarchy.extra_cycles a = Hierarchy.extra_cycles b

(* geometries with power-of-two and odd set counts at both levels,
   power-of-two (1,2,4,8) and odd (3) associativities, and the
   degenerate l2_line < l1_line shape the descent range loop
   handles *)
let gen_hier_config =
  QCheck.Gen.(
    oneofl [ 16; 32; 64 ] >>= fun l1_line ->
    oneofl [ 1; 2; 3; 4; 8 ] >>= fun l1_assoc ->
    oneofl [ 2; 3; 4; 8 ] >>= fun l1_sets ->
    oneofl [ 32; 64; 128 ] >>= fun l2_line ->
    oneofl [ 2; 3; 4 ] >>= fun l2_assoc ->
    oneofl [ 4; 6; 8; 16 ] >>= fun l2_sets ->
    bool >>= fun fpb ->
    return
      {
        Hierarchy.l1_size = l1_line * l1_assoc * l1_sets;
        l1_line;
        l1_assoc;
        l2_size = l2_line * l2_assoc * l2_sets;
        l2_line;
        l2_assoc;
        l1_lat = 1;
        l2_lat = 5;
        mem_lat = 50;
        fp_bypass_l1 = fpb;
      })

let print_hier_config (c : Hierarchy.config) =
  Printf.sprintf "L1 %d/%d/%d, L2 %d/%d/%d, fpb=%b" c.Hierarchy.l1_size
    c.l1_line c.l1_assoc c.l2_size c.l2_line c.l2_assoc c.fp_bypass_l1

(* a small address pool makes same-line repeats (the memo fast path)
   frequent; sizes up to 8 near line boundaries exercise straddles *)
let gen_events =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (int_range 0 1023 >>= fun addr ->
       int_range 1 8 >>= fun size ->
       bool >>= fun write ->
       bool >>= fun is_float ->
       return (addr, size, write, is_float)))

let print_events evs =
  String.concat ";"
    (List.map
       (fun (a, s, w, f) -> Printf.sprintf "(%d,%d,%b,%b)" a s w f)
       evs)

let prop_drain_matches_per_access =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"ring drain byte-equal to per-access"
    QCheck.(
      triple
        (make gen_hier_config ~print:print_hier_config)
        (make gen_events ~print:print_events)
        (int_range 1 17))
    (fun (cfg, events, chunk0) ->
      let per = Hierarchy.create cfg in
      let dra = Hierarchy.create cfg in
      List.iter
        (fun (addr, size, _, is_float) ->
          ignore (Hierarchy.access per ~addr ~size ~is_float))
        events;
      let n = List.length events in
      let addrs = Array.make n 0 and metas = Array.make n 0 in
      List.iteri
        (fun i (addr, size, write, is_float) ->
          addrs.(i) <- addr;
          metas.(i) <- Ring.meta ~size ~write ~is_float ~iid:i)
        events;
      (* varying batch boundaries: the memo must survive (or be
         invalidated) identically across flush points *)
      let lo = ref 0 and k = ref 0 in
      while !lo < n do
        let c = min (n - !lo) (1 + ((chunk0 + !k) mod 17)) in
        Hierarchy.drain_quiet dra addrs metas !lo (!lo + c);
        lo := !lo + c;
        incr k
      done;
      hier_state_eq per dra)

(* The drain as PMU: an attached [Pmu] fed by [drain_quiet] (random
   batch boundaries) ends with the same samples, the same event count
   and the same hierarchy as [Hierarchy.access] then [Pmu.record] on
   every event, for any period and phase *)
let prop_sampling_drain_matches_record =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"sampling drain = access + Pmu.record"
    QCheck.(
      quad
        (make gen_hier_config ~print:print_hier_config)
        (make gen_events ~print:print_events)
        (pair (int_range 1 13) (int_range (-20) 20))
        (int_range 1 17))
    (fun (cfg, events, (period, phase), chunk0) ->
      let per = Hierarchy.create cfg and dra = Hierarchy.create cfg in
      let p_per = Pmu.create ~period ~phase ()
      and p_dra = Pmu.create ~period ~phase () in
      Pmu.attach p_dra dra;
      List.iteri
        (fun i (addr, size, _, is_float) ->
          let latency, level = Hierarchy.access per ~addr ~size ~is_float in
          (* a few iids, so samples accumulate per instruction *)
          Pmu.record p_per ~iid:(i mod 5) ~level ~latency ~is_float)
        events;
      let n = List.length events in
      let addrs = Array.make n 0 and metas = Array.make n 0 in
      List.iteri
        (fun i (addr, size, write, is_float) ->
          addrs.(i) <- addr;
          metas.(i) <- Ring.meta ~size ~write ~is_float ~iid:(i mod 5))
        events;
      let lo = ref 0 and k = ref 0 in
      while !lo < n do
        let c = min (n - !lo) (1 + ((chunk0 + !k) mod 17)) in
        Hierarchy.drain_quiet dra addrs metas !lo (!lo + c);
        lo := !lo + c;
        incr k
      done;
      Pmu.by_instr p_per = Pmu.by_instr p_dra
      && Pmu.events_seen p_per = Pmu.events_seen p_dra
      && hier_state_eq per dra)

module Drainer = Slo_cachesim.Drainer

(* The drain as PMU on the worker domain: the same property through
   [Drainer.run ~pipeline:true] at random ring capacities, so batch
   handoffs (and buffer swaps) land anywhere in the stream *)
let prop_pipelined_sampling_drain_matches_record =
  QCheck.Test.make ~count:(Qcheck_long.iters 200)
    ~name:"pipelined sampling drain = access + Pmu.record"
    QCheck.(
      quad
        (make gen_hier_config ~print:print_hier_config)
        (make gen_events ~print:print_events)
        (pair (int_range 1 13) (int_range (-20) 20))
        (int_range 1 64))
    (fun (cfg, events, (period, phase), cap) ->
      let per = Hierarchy.create cfg and dra = Hierarchy.create cfg in
      let p_per = Pmu.create ~period ~phase ()
      and p_dra = Pmu.create ~period ~phase () in
      Pmu.attach p_dra dra;
      List.iteri
        (fun i (addr, size, _, is_float) ->
          let latency, level = Hierarchy.access per ~addr ~size ~is_float in
          Pmu.record p_per ~iid:(i mod 5) ~level ~latency ~is_float)
        events;
      Drainer.run ~pipeline:true ~cap
        ~drain:(fun a m n -> Hierarchy.drain_quiet dra a m 0 n)
        (fun rg ->
          List.iteri
            (fun i (addr, size, write, is_float) ->
              Ring.push rg addr (Ring.meta ~size ~write ~is_float ~iid:(i mod 5)))
            events);
      Pmu.by_instr p_per = Pmu.by_instr p_dra
      && Pmu.events_seen p_per = Pmu.events_seen p_dra
      && hier_state_eq per dra)

(* the worker-domain drain: same events through a small ring with
   buffer handoff (many swaps, back-pressure) must leave the hierarchy
   byte-equal to one serial drain call *)
let drainer_matches_serial () =
  let cfg = Hierarchy.small in
  let serial = Hierarchy.create cfg in
  let piped = Hierarchy.create cfg in
  let n = 5000 in
  let addrs = Array.make n 0 and metas = Array.make n 0 in
  let seed = ref 123456789 in
  let rand m =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod m
  in
  for i = 0 to n - 1 do
    addrs.(i) <- rand 4096;
    metas.(i) <-
      Ring.meta ~size:(1 + rand 8) ~write:(rand 2 = 0) ~is_float:(rand 2 = 0)
        ~iid:i
  done;
  Hierarchy.drain_quiet serial addrs metas 0 n;
  Drainer.run ~pipeline:true ~cap:64
    ~drain:(fun a m len -> Hierarchy.drain_quiet piped a m 0 len)
    (fun rg ->
      for i = 0 to n - 1 do
        Ring.push rg addrs.(i) metas.(i)
      done);
  Alcotest.(check bool) "pipelined drain byte-equal to serial" true
    (hier_state_eq serial piped)

let push_events rg n =
  for i = 0 to n - 1 do
    Ring.push rg i (Ring.meta ~size:1 ~write:false ~is_float:false ~iid:i)
  done

(* the first drain failure surfaces as itself (not wrapped) once the
   body returns, inline or pipelined, and never deadlocks the producer
   even when every batch fails *)
let drainer_join_reraises () =
  List.iter
    (fun pipeline ->
      Alcotest.check_raises
        (Printf.sprintf "first failure surfaces (pipeline=%b)" pipeline)
        (Failure "drain boom")
        (fun () ->
          Drainer.run ~pipeline ~cap:8 ~depth:1
            ~drain:(fun _ _ _ -> failwith "drain boom")
            (fun rg -> push_events rg 100)))
    [ true; false ]

(* when the body and the worker's drain both fail, the body's error
   wins and the worker is still joined *)
let drainer_body_error_wins () =
  Alcotest.check_raises "body's failure wins" (Failure "body boom")
    (fun () ->
      Drainer.run ~pipeline:true ~cap:8 ~depth:1
        ~drain:(fun _ _ _ -> failwith "drain boom")
        (fun rg ->
          push_events rg 100;
          failwith "body boom"))

let extra_cycles_accumulate () =
  let h = Hierarchy.create Hierarchy.small in
  ignore (Hierarchy.access h ~addr:0x10000 ~size:4 ~is_float:false);
  Alcotest.(check int) "mem beyond base"
    (Hierarchy.small.mem_lat - Hierarchy.small.l1_lat)
    (Hierarchy.extra_cycles h);
  ignore (Hierarchy.access h ~addr:0x10000 ~size:4 ~is_float:false);
  Alcotest.(check int) "L1 hit adds nothing"
    (Hierarchy.small.mem_lat - Hierarchy.small.l1_lat)
    (Hierarchy.extra_cycles h)

(* ------------------------- PMU ------------------------- *)

let pmu_counts_first_level_misses () =
  let p = Pmu.create ~period:1 () in
  Pmu.record p ~iid:1 ~level:Hierarchy.L1 ~latency:1 ~is_float:false;
  Pmu.record p ~iid:1 ~level:Hierarchy.L2 ~latency:11 ~is_float:false;
  Pmu.record p ~iid:1 ~level:Hierarchy.L2 ~latency:11 ~is_float:true;
  (* an FP access served by L2 is NOT a first-level miss on Itanium *)
  Pmu.record p ~iid:2 ~level:Hierarchy.Mem ~latency:200 ~is_float:true;
  Alcotest.(check int) "events" 2 (Pmu.events_seen p);
  Alcotest.(check int) "iid1 misses" 1 (Pmu.stats_of p 1).miss_events;
  Alcotest.(check int) "iid2 latency" 200 (Pmu.stats_of p 2).total_latency

let pmu_sampling_period () =
  let p = Pmu.create ~period:10 () in
  for _ = 1 to 100 do
    Pmu.record p ~iid:7 ~level:Hierarchy.Mem ~latency:200 ~is_float:false
  done;
  Alcotest.(check int) "every 10th sampled" 10 (Pmu.stats_of p 7).miss_events;
  Alcotest.(check int) "all events counted" 100 (Pmu.events_seen p)

(* regression: a negative phase used to leave the internal countdown
   negative (OCaml [mod] keeps the dividend's sign), so the counter
   never reached the period and no event was ever sampled *)
let pmu_negative_phase () =
  let p = Pmu.create ~period:10 ~phase:(-3) () in
  for _ = 1 to 100 do
    Pmu.record p ~iid:5 ~level:Hierarchy.Mem ~latency:200 ~is_float:false
  done;
  let m = (Pmu.stats_of p 5).miss_events in
  Alcotest.(check bool) "negative phase still samples" true (m >= 9 && m <= 11);
  Alcotest.(check int) "all events counted" 100 (Pmu.events_seen p);
  (* phase -3 and phase period-3 are the same offset *)
  let q = Pmu.create ~period:10 ~phase:7 () in
  for _ = 1 to 100 do
    Pmu.record q ~iid:5 ~level:Hierarchy.Mem ~latency:200 ~is_float:false
  done;
  Alcotest.(check int) "equivalent to phase mod period" m
    (Pmu.stats_of q 5).miss_events

let pmu_oversized_phase () =
  (* a phase >= period must behave exactly like phase mod period *)
  let a = Pmu.create ~period:10 ~phase:23 () in
  let b = Pmu.create ~period:10 ~phase:3 () in
  let samples p =
    for _ = 1 to 57 do
      Pmu.record p ~iid:1 ~level:Hierarchy.Mem ~latency:200 ~is_float:false
    done;
    (Pmu.stats_of p 1).miss_events
  in
  Alcotest.(check int) "phase 23 = phase 3 under period 10" (samples b)
    (samples a)

let pmu_phase_shift () =
  (* different phase, same totals: models instrumentation skid *)
  let p1 = Pmu.create ~period:10 () in
  let p2 = Pmu.create ~period:10 ~phase:3 () in
  for _ = 1 to 95 do
    Pmu.record p1 ~iid:1 ~level:Hierarchy.Mem ~latency:200 ~is_float:false;
    Pmu.record p2 ~iid:1 ~level:Hierarchy.Mem ~latency:200 ~is_float:false
  done;
  let m1 = (Pmu.stats_of p1 1).miss_events in
  let m2 = (Pmu.stats_of p2 1).miss_events in
  Alcotest.(check bool) "within one sample" true (abs (m1 - m2) <= 1)

(* ------------------------- coherence ------------------------- *)

module Coherent = Slo_cachesim.Coherent

let coherent_false_sharing () =
  let c = Coherent.create () in
  (* two cores ping-pong writes on the same line *)
  for i = 0 to 99 do
    ignore (Coherent.access c ~core:(i land 1) ~addr:(8 * (i land 1)) ~write:true)
  done;
  Alcotest.(check bool) "invalidation storm" true
    (Coherent.invalidations c > 90)

let coherent_disjoint_lines () =
  let c = Coherent.create () in
  for i = 0 to 99 do
    let core = i land 1 in
    ignore (Coherent.access c ~core ~addr:(core * 64) ~write:true)
  done;
  Alcotest.(check int) "no invalidations" 0 (Coherent.invalidations c);
  (* after warmup, accesses are 1-cycle private hits *)
  let lat = Coherent.access c ~core:0 ~addr:0 ~write:true in
  Alcotest.(check int) "private hit" 1 lat

let coherent_read_sharing_ok () =
  let c = Coherent.create () in
  for i = 0 to 99 do
    ignore (Coherent.access c ~core:(i land 1) ~addr:0 ~write:false)
  done;
  Alcotest.(check int) "shared reads don't invalidate" 0
    (Coherent.invalidations c)

let coherent_bad_core () =
  let c = Coherent.create () in
  Alcotest.(check bool) "core validated" true
    (match Coherent.access c ~core:2 ~addr:0 ~write:false with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick basic_hit_miss;
          Alcotest.test_case "lru" `Quick lru_eviction;
          Alcotest.test_case "clear" `Quick clear_and_stats;
          Alcotest.test_case "bad config" `Quick bad_config;
          QCheck_alcotest.to_alcotest prop_working_set;
          QCheck_alcotest.to_alcotest prop_miss_bound;
          QCheck_alcotest.to_alcotest prop_matches_reference_model;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick hierarchy_levels;
          Alcotest.test_case "fp bypass" `Quick fp_bypass;
          Alcotest.test_case "straddle" `Quick straddling_access;
          Alcotest.test_case "partial hit descends only misses" `Quick
            partial_hit_descends_only_misses;
          Alcotest.test_case "per-line fills share L2 line" `Quick
            per_line_fills_share_l2_line;
          Alcotest.test_case "fp straddle touches L2 range" `Quick
            fp_straddle_touches_l2_range;
          Alcotest.test_case "extra cycles" `Quick extra_cycles_accumulate;
        ] );
      ( "ring",
        [
          Alcotest.test_case "meta round-trips" `Quick ring_meta_roundtrip;
          Alcotest.test_case "flush on full, in order" `Quick
            ring_flushes_when_full;
          QCheck_alcotest.to_alcotest prop_drain_matches_per_access;
          QCheck_alcotest.to_alcotest prop_sampling_drain_matches_record;
          Alcotest.test_case "drainer matches serial" `Quick
            drainer_matches_serial;
          QCheck_alcotest.to_alcotest
            prop_pipelined_sampling_drain_matches_record;
          Alcotest.test_case "drainer join re-raises" `Quick
            drainer_join_reraises;
          Alcotest.test_case "drainer body error wins" `Quick
            drainer_body_error_wins;
        ] );
      ( "pmu",
        [
          Alcotest.test_case "first-level misses" `Quick
            pmu_counts_first_level_misses;
          Alcotest.test_case "period" `Quick pmu_sampling_period;
          Alcotest.test_case "negative phase" `Quick pmu_negative_phase;
          Alcotest.test_case "oversized phase" `Quick pmu_oversized_phase;
          Alcotest.test_case "phase" `Quick pmu_phase_shift;
        ] );
      ( "coherent",
        [
          Alcotest.test_case "false sharing" `Quick coherent_false_sharing;
          Alcotest.test_case "disjoint lines" `Quick coherent_disjoint_lines;
          Alcotest.test_case "read sharing" `Quick coherent_read_sharing_ok;
          Alcotest.test_case "bad core" `Quick coherent_bad_core;
        ] );
    ]
