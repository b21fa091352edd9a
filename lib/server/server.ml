module Json = Slo_util.Json
module Lru = Slo_util.Lru
module Clock = Slo_util.Clock
module Histogram = Slo_util.Histogram
module Pool = Slo_exec.Pool
module P = Protocol
module D = Slo_core.Driver
module H = Slo_core.Heuristics
module Adv = Slo_core.Advisor
module Codec = Slo_core.Codec
module Tune = Slo_tune.Tune
module W = Slo_profile.Weights

type config = {
  socket_path : string;
  listen : (string * int) option;
  jobs : int;
  shards : int;
  window : int;
  cache_mb : int;
  cache_dir : string option;
  max_conns : int;
  high_watermark : int;
  low_watermark : int;
  handle_sigterm : bool;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    listen = None;
    jobs = Pool.default_jobs ();
    shards = max 1 (min 4 (Slo_exec.Cores.total - 1));
    window = 32;
    cache_mb = 64;
    cache_dir = None;
    max_conns = 64;
    high_watermark = 0;
    low_watermark = 0;
    handle_sigterm = true;
    log = ignore;
  }

(* the in-memory LRU maps request bytes to the serialized success reply
   with [cached:true] and no id. A reply is keyed by its request's
   normal form ({!identity}), and also by the id-stripped bytes a frame
   arrived with when those differ from it. [rk] is the request kind for
   the stats counters. Compiled programs are not cached: no measured
   traffic reused one, and each weighed about ten replies. *)
type cached = { rk : string; body : string }

(* A request parked on a pending computation. The job answers it with
   its reply, or the deadline clock with a [timeout], whichever comes
   first; [w_done] lets only the first one through. [w_finish] renders
   the reply and finishes the request with it. *)
type waiter = {
  w_done : bool Atomic.t;
  w_finish : ?entry:string -> P.reply -> unit;
}

let answer w ?entry reply =
  if not (Atomic.exchange w.w_done true) then w.w_finish ?entry reply

type listener = {
  l_fd : Unix.file_descr;
  l_poke : Unix.sockaddr; (* where a throwaway connect wakes accept *)
  l_tcp : bool;
}

type t = {
  cfg : config;
  pool : Pool.t;
  listeners : listener list;
  hi_mark : int;
  lo_mark : int;
  stopping : bool Atomic.t;
  (* self-pipe waking the deadline clock on [run]'s main thread: one
     byte per stop request, newly armed deadline, or last in-flight
     reply of a drain. [request_stop] writes it possibly inside a signal
     handler, where taking a mutex could self-deadlock. The write end
     does not block: a full pipe has woken the clock already. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t; (* guards every mutable field below *)
  cache : (string, cached) Lru.t;
  disk : Diskcache.t option;
  (* the waiters of each computation on the pool, newest first; the
     number of entries is the backlog that shedding reads *)
  pending : (string, waiter list) Hashtbl.t;
  (* armed deadlines: when each was armed, its length in ms and its
     waiter; the clock drops answered ones whenever it wakes *)
  mutable armed : (int64 * float * waiter) list;
  req_counts : (string, int) Hashtbl.t;
  err_counts : (string, int) Hashtbl.t;
  hist : Histogram.t;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable compiles : int; (* reported on the wire as [ir_misses] *)
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable shedding : bool;
  mutable inflight : int;
  mutable conns : (int * Unix.file_descr) list;
  mutable threads : Thread.t list;
  mutable next_conn : int;
  started : float; (* wall clock, display only *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let count_error t code = locked t (fun () -> bump t.err_counts (P.error_code_name code))

let err code fmt =
  Printf.ksprintf (fun message -> P.R_error { code; message }) fmt

(* ------------------------------------------------------------------ *)
(* Compute jobs (run on pool worker domains)                           *)
(* ------------------------------------------------------------------ *)

let compile t src =
  locked t (fun () -> t.compiles <- t.compiles + 1);
  D.compile ~verify:true src

let kind_name = function
  | P.Advise _ -> "advise"
  | P.Bench _ -> "bench"
  | P.Check _ -> "check"
  | P.Tune _ -> "tune"
  | P.Stats -> "stats"
  | P.Shutdown -> "shutdown"

let resolve_scheme = function
  | None -> Ok W.ISPBO
  | Some name -> (
    match Codec.scheme_of_string name with
    | Error _ -> Error (err P.Bad_request "unknown scheme %S" name)
    | Ok scheme when W.is_dcache scheme ->
      Error
        (err P.Bad_request
           "d-cache scheme %S attributes PMU samples, not block weights; it \
            is not servable over the wire"
           name)
    | Ok scheme -> Ok scheme)

(* A compute request's cache identity: its normal form — scheme
   resolved and written back in its canonical spelling, omitted at its
   default; the deadline dropped, except on tune, where
   it is the search budget and shapes the answer; no id — serialized by
   the wire codec. Two requests share a cached reply exactly when these
   bytes are equal, so every field the codec carries is part of the
   identity. Returns the key, the normal form and the resolved scheme
   (the default on [check], which runs none), or the [bad_request]
   reply for an unknown spelling or for a key over
   {!P.max_frame_bytes}: escaping can make the key several times longer
   than the frame it came in, and the key is held in memory and on disk
   under the same bound as a frame. *)
let identity req =
  let ( let* ) = Result.bind in
  let scheme =
    match req with
    | P.Advise { scheme; _ } | P.Bench { scheme; _ } | P.Tune { scheme; _ } ->
      scheme
    | P.Check _ | P.Stats | P.Shutdown -> None
  in
  let* scheme = resolve_scheme scheme in
  let sname =
    if scheme = W.ISPBO then None else Some (Codec.scheme_name scheme)
  in
  let normal =
    match req with
    | P.Advise a -> P.Advise { a with scheme = sname; deadline_ms = None }
    | P.Bench b -> P.Bench { b with scheme = sname; deadline_ms = None }
    | P.Check c -> P.Check { c with deadline_ms = None }
    | P.Tune x -> P.Tune { x with scheme = sname }
    | P.Stats | P.Shutdown -> req
  in
  let key = Json.to_string ~indent:false (P.json_of_request normal) in
  if String.length key > P.max_frame_bytes then
    Error
      (err P.Bad_request
         "request too large: its normal form is %d bytes, over the %d-byte \
          frame limit"
         (String.length key) P.max_frame_bytes)
  else Ok (key, normal, scheme)

(* display label for sources shipped over the wire; the client re-labels
   lines with the real path when it has one *)
let wire_uri = "<input>"

(* [req] is a normal form and [scheme] its resolved scheme, both from
   {!identity} *)
let compute t ~scheme req =
  (* the program and feedback a profile-guided request runs on *)
  let profiled src args =
    let prog = compile t src in
    (prog, D.feedback_for ~args prog ~scheme)
  in
  match req with
  | P.Check { src; relax; _ } ->
    (* purely static: no profile collection, no execution *)
    let prog = compile t src in
    let diags = Slo_advice.Advice.check ~relax prog in
    P.R_check
      {
        c_report = Slo_advice.Advice.render ~src ~file:wire_uri diags;
        c_sarif = Slo_advice.Sarif.to_string [ (wire_uri, diags) ];
        c_invalidating = Slo_advice.Advice.invalidating_count diags;
        c_cached = false;
      }
  | P.Tune { src; args; beam; deadline_ms = budget_ms; _ } ->
    (* jobs=1: a busy daemon gets its parallelism from concurrent tune
       requests occupying pool workers, not from one request
       oversubscribing the domains — and the search is deterministic at
       any jobs anyway *)
    let prog, feedback = profiled src args in
    let cfg = Tune.default_config ~scheme ~feedback in
    let cfg =
      { cfg with
        Tune.args; budget_ms;
        beam = Option.value ~default:cfg.Tune.beam beam }
    in
    let r = Tune.search prog cfg in
    P.R_tune
      {
        t_plans = List.map Codec.plan_to_string r.Tune.t_found;
        t_heuristic_plans = List.map Codec.plan_to_string r.t_heuristic;
        t_baseline_cycles = r.t_baseline_cycles;
        t_heuristic_cycles = r.t_heuristic_cycles;
        t_found_cycles = r.t_found_cycles;
        t_improved = r.t_improved;
        t_explored = r.t_explored;
        t_total = r.t_total;
        t_complete = r.t_complete;
        t_cached = false;
      }
  | P.Advise { src; args; pool; _ } ->
    let prog, feedback = profiled src args in
    let adv = D.advise ~pool prog ~scheme ~feedback in
    P.R_advise { a_report = Adv.report adv; a_cached = false }
  | P.Bench { src; args; pool; _ } ->
    let prog, feedback = profiled src args in
    let ev = D.evaluate ~args ~pool ~verify:true ~scheme ~feedback prog in
    P.R_bench
      {
        b_cycles_before = ev.D.e_before.D.m_cycles;
        b_cycles_after = ev.D.e_after.D.m_cycles;
        b_speedup_pct = ev.D.e_speedup_pct;
        b_plans = List.map H.plan_summary (H.plans ev.D.e_decisions);
        b_cached = false;
      }
  | P.Stats | P.Shutdown -> invalid_arg "Server.compute"

(* re-read the backlog, the number of [pending] computations, after an
   entry is added or removed: the watermark pair is a hysteresis band
   so the shedding decision does not flap once per job around one
   threshold *)
let note_backlog t =
  (* caller holds t.lock *)
  let queued = Hashtbl.length t.pending in
  if (not t.shedding) && queued >= t.hi_mark then begin
    t.shedding <- true;
    t.cfg.log
      (Printf.sprintf "overload: %d jobs queued (high watermark %d), \
                       shedding bench" queued t.hi_mark)
  end
  else if t.shedding && queued <= t.lo_mark then begin
    t.shedding <- false;
    t.cfg.log
      (Printf.sprintf "overload: backlog at %d (low watermark %d), \
                       admitting bench again" queued t.lo_mark)
  end

(* a failing pipeline stage is the request's fault, not the worker's:
   a VM fault means bad [args] for the program's [main] (wrong arity,
   divide by zero, OOB access) *)
let error_code : D.error -> P.error_code = function
  | D.Syntax _ -> P.Parse_error
  | D.Type _ -> P.Type_error
  | D.Unsupported _ | D.Ill_formed _ -> P.Legality_error
  | D.Runtime _ | D.Dcache_scheme _ -> P.Bad_request

let mark_cached = function
  | P.R_advise a -> P.R_advise { a with a_cached = true }
  | P.R_bench b -> P.R_bench { b with b_cached = true }
  | P.R_check c -> P.R_check { c with c_cached = true }
  | P.R_tune x -> P.R_tune { x with t_cached = true }
  | r -> r

let serialize reply = Json.to_string ~indent:false (P.json_of_reply reply)

(* caller holds t.lock *)
let add_reply t key ~rk body =
  ignore
    (Lru.add t.cache key { rk; body }
       ~bytes:(String.length body + String.length key + 64))

(* Everything a request can legitimately fail with becomes a structured
   error reply; only true surprises surface as [worker_crash]. The job
   always takes its [pending] entry, and caches a success's
   cached-marked bytes in the same locked section, so a request never
   finds neither; the bytes also go to disk when a disk cache is
   configured. Then it answers every waiter the deadline clock has not. *)
let job t ~key ~scheme req () =
  let reply, entry =
    match D.guard (fun () -> compute t ~scheme req) with
    | Ok r -> (r, Some (serialize (mark_cached r)))
    | Error e ->
      (P.R_error { code = error_code e; message = D.render_error e }, None)
    | exception e -> (err P.Worker_crash "%s" (Printexc.to_string e), None)
  in
  let waiters =
    locked t (fun () ->
        let ws = Hashtbl.find t.pending key in
        Hashtbl.remove t.pending key;
        note_backlog t;
        Option.iter (fun body -> add_reply t key ~rk:(kind_name req) body) entry;
        ws)
  in
  (match (t.disk, entry) with
  | Some d, Some body -> Diskcache.store d ~key body
  | _ -> ());
  List.iter (fun w -> answer w ?entry reply) (List.rev waiters)

(* ------------------------------------------------------------------ *)
(* Request handling (runs on connection reader threads)                *)
(* ------------------------------------------------------------------ *)

(* a request is answered from the cache, answered now with an error,
   or parked on a pending computation, which answers it *)
type outcome =
  | Hit of string (* cached-marked reply bytes *)
  | Now of P.reply
  | Parked

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* caller holds t.lock *)
let find_reply t key =
  Option.map (fun c -> c.body) (Lru.find t.cache key)

let probe_disk t ~key ~rk =
  match t.disk with
  | None -> None
  | Some d -> (
    match Diskcache.find d ~key with
    | None ->
      locked t (fun () -> t.disk_misses <- t.disk_misses + 1);
      None
    | Some record -> (
      (* a record is untrusted input: serve the codec's bytes for the
         reply it parses to, never the file's own *)
      match P.reply_of_json (Json.of_string record) with
      | Ok reply ->
        let body = serialize (mark_cached reply) in
        locked t (fun () ->
            t.disk_hits <- t.disk_hits + 1;
            add_reply t key ~rk body);
        Some body
      | Error _ | (exception Json.Parse_error _) ->
        (* a stale-format record: treat as a miss *)
        locked t (fun () -> t.disk_misses <- t.disk_misses + 1);
        None))

(* [req] is the normal form and [scheme] the resolved scheme {!identity}
   returned with [key]. On a miss [w] joins the computation's waiters,
   and a [deadline] (ms) is armed on the clock. *)
let serve_compute t ~key ~scheme ~deadline req w =
  let mem =
    locked t (fun () ->
        match find_reply t key with
        | Some _ as hit ->
          t.result_hits <- t.result_hits + 1;
          hit
        | None ->
          t.result_misses <- t.result_misses + 1;
          None)
  in
  match mem with
  | Some body -> Hit body
  | None -> (
    match probe_disk t ~key ~rk:(kind_name req) with
    | Some body -> Hit body
    | None ->
      let park waiters =
        (* caller holds t.lock *)
        Hashtbl.replace t.pending key (w :: waiters);
        Option.iter
          (fun ms ->
            t.armed <- (Clock.now_ns (), ms, w) :: t.armed;
            wake t)
          deadline;
        Parked
      in
      locked t (fun () ->
          (* recheck: a coalesced job or another connection's disk load
             may have filled the slot during the disk probe *)
          match find_reply t key with
          | Some body -> Hit body
          | None -> (
            match Hashtbl.find_opt t.pending key with
            | Some waiters -> park waiters
            | None ->
              let sheddable =
                match req with P.Bench _ | P.Tune _ -> true | _ -> false
              in
              if t.shedding && sheddable then
                Now
                  (err P.Overloaded
                     "overloaded: %d compute jobs queued; bench and tune \
                      requests are shed until the backlog clears (cached \
                      replies are still served)"
                     (Hashtbl.length t.pending))
              else begin
                (* submit and park in one section: a job that finishes
                   first must find its waiter to answer *)
                ignore (Pool.submit t.pool (job t ~key ~scheme req));
                let parked = park [] in
                note_backlog t;
                parked
              end)))

let build_stats t =
  locked t (fun () ->
      let sorted tbl =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      let p q = Histogram.percentile t.hist q in
      P.R_stats
        {
          s_uptime_s = Unix.gettimeofday () -. t.started;
          s_requests = sorted t.req_counts;
          s_errors = sorted t.err_counts;
          s_result_hits = t.result_hits;
          s_result_misses = t.result_misses;
          s_ir_hits = 0;
          s_ir_misses = t.compiles;
          s_disk_hits = t.disk_hits;
          s_disk_misses = t.disk_misses;
          s_cache_entries = Lru.length t.cache;
          s_cache_bytes = Lru.bytes t.cache;
          s_cache_evictions = Lru.evictions t.cache;
          s_inflight = t.inflight;
          s_queued = Hashtbl.length t.pending;
          s_shedding = t.shedding;
          s_conns = List.length t.conns;
          s_latency =
            {
              P.l_count = Histogram.count t.hist;
              l_p50_ms = p 50.0;
              l_p95_ms = p 95.0;
              l_p99_ms = p 99.0;
              l_max_ms = Histogram.max_ms t.hist;
            };
        })

(* [request_stop] may run inside the SIGTERM handler, which OCaml
   executes at a poll point on an arbitrary thread — possibly one that
   already holds [t.lock]. It must therefore never take a mutex: it
   only flips the atomic flag, wakes the acceptors, and wakes [run]'s
   main thread through the self-pipe. *)
let request_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    t.cfg.log "drain requested";
    (* Waking threads blocked in accept(2) is the hard part: close(2)
       from another thread does NOT unblock them on Linux (the in-flight
       syscall pins the descriptor), so shut each listener down and poke
       it with throwaway connections — one per accept shard, since each
       poke wakes at most one acceptor; the accept loops re-check the
       stopping flag on every wake-up. The fds are closed by [drain]
       after the loops have exited. *)
    List.iter
      (fun l ->
        (try Unix.shutdown l.l_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        for _ = 1 to t.cfg.shards do
          try
            let dom = if l.l_tcp then Unix.PF_INET else Unix.PF_UNIX in
            let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
            (try Unix.connect fd l.l_poke with Unix.Unix_error _ -> ());
            Unix.close fd
          with Unix.Unix_error _ -> ()
        done)
      t.listeners;
    wake t
  end

(* ------------------------------------------------------------------ *)
(* Connections: pipelined reader + out-of-order completers             *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_ic : in_channel;
  c_oc : out_channel;
  c_wlock : Mutex.t; (* guards the outbound queue below *)
  c_wcond : Condition.t;
  (* (id, body) replies awaiting the writer thread, which splices the
     id while writing instead of copying the shared body *)
  c_outq : (int option * string) Queue.t;
  mutable c_wclosed : bool; (* no further writes: reader gone or pipe broke *)
  c_window : Semaphore.Counting.t; (* free in-flight slots *)
}

(* Enqueue one reply frame for the connection's writer thread. Replies
   from concurrent completers interleave at frame granularity, and the
   writer batches whatever has accumulated under a single flush, so
   back-to-back completions of pipelined requests cost one write
   syscall, not one each. *)
let send_raw conn ?id payload =
  Mutex.lock conn.c_wlock;
  let ok = not conn.c_wclosed in
  if ok then begin
    Queue.add (id, payload) conn.c_outq;
    Condition.signal conn.c_wcond
  end;
  Mutex.unlock conn.c_wlock;
  ok

(* drain the queue in batches; one flush per batch. Exits once the
   reader has marked the connection closed and the queue is empty. *)
let writer_loop conn =
  let batch = Queue.create () in
  let rec go () =
    Mutex.lock conn.c_wlock;
    while Queue.is_empty conn.c_outq && not conn.c_wclosed do
      Condition.wait conn.c_wcond conn.c_wlock
    done;
    Queue.transfer conn.c_outq batch;
    let closing = conn.c_wclosed in
    Mutex.unlock conn.c_wlock;
    match
      if not (Queue.is_empty batch) then begin
        Queue.iter
          (fun (id, body) -> P.write_frame_id conn.c_oc ?id body)
          batch;
        flush conn.c_oc
      end
    with
    | () ->
      Queue.clear batch;
      if not closing then go ()
    | exception (Sys_error _ | Unix.Unix_error _ | P.Framing_error _) ->
      (* peer is gone: stop accepting frames so completers drop their
         replies instead of growing a queue nobody drains *)
      Mutex.lock conn.c_wlock;
      conn.c_wclosed <- true;
      Queue.clear conn.c_outq;
      Mutex.unlock conn.c_wlock
  in
  go ()

(* a reply's bytes, counting an error reply by its code *)
let render t reply =
  (match reply with
  | P.R_error { code; _ } -> count_error t code
  | _ -> ());
  serialize reply

(* finish one admitted request: frame-cache insert, reply write, latency
   record, slot release. [entry] is a success's cached-marked bytes;
   [frame_key], when given, the id-stripped request bytes that key them
   besides the normal form, so a byte-identical repeat skips the JSON
   parse. Runs on the reader thread (fast paths), on the pool worker
   that computed the reply, or on the deadline clock. *)
let finish t conn ~t0 ~id ?frame_key ~rk ?entry body =
  (match (frame_key, entry) with
  | Some fk, Some e -> locked t (fun () -> add_reply t fk ~rk e)
  | _ -> ());
  ignore (send_raw conn ?id body);
  let drained =
    locked t (fun () ->
        Histogram.record t.hist (Clock.elapsed_ms ~since:t0);
        t.inflight <- t.inflight - 1;
        t.inflight = 0)
  in
  if drained && Atomic.get t.stopping then wake t;
  Semaphore.Counting.release conn.c_window

(* decode and dispatch one already-admitted frame. [fast] carries the
   canonical id and id-stripped request bytes when the prefix scan
   succeeded. *)
let handle_frame t conn ~t0 ~fast payload =
  match Json.of_string payload with
  | exception Json.Parse_error msg ->
    let id = Option.map fst fast in
    finish t conn ~t0 ~id ~rk:""
      (render t (err P.Bad_request "request is not JSON: %s" msg))
  | j -> (
    let id =
      match fast with Some (id, _) -> Some id | None -> P.id_of_frame j
    in
    match P.request_of_json j with
    | Error msg ->
      finish t conn ~t0 ~id ~rk:"" (render t (err P.Bad_request "%s" msg))
    | Ok req -> (
      let rk = kind_name req in
      locked t (fun () -> bump t.req_counts rk);
      match req with
      | P.Stats -> finish t conn ~t0 ~id ~rk (serialize (build_stats t))
      | P.Shutdown ->
        finish t conn ~t0 ~id ~rk (serialize P.R_shutdown);
        request_stop t
      | P.Advise _ | P.Bench _ | P.Check _ | P.Tune _ -> (
        match identity req with
        | Error reply -> finish t conn ~t0 ~id ~rk (render t reply)
        | Ok (key, normal, scheme) -> (
          (* the frame's id-independent bytes, when they differ from the
             normal form. Without a canonical prefix the bytes are only
             id-independent when there is no id at all. *)
          let frame_key =
            match fast with
            | Some (_, rest) when rest <> key -> Some rest
            | None when id = None && payload <> key -> Some payload
            | _ -> None
          in
          let finish = finish t conn ~t0 ~id ?frame_key ~rk in
          (* the clock answers [deadline_ms] on advise, bench and check
             with a timeout. On tune it is the anytime search budget,
             enforced inside the search itself: a tight budget must
             return the best-so-far plan, not race a timeout *)
          let deadline =
            match req with
            | P.Advise { deadline_ms; _ }
            | P.Bench { deadline_ms; _ }
            | P.Check { deadline_ms; _ } ->
              deadline_ms
            | _ -> None
          in
          let w =
            { w_done = Atomic.make false;
              w_finish = (fun ?entry reply -> finish ?entry (render t reply)) }
          in
          match serve_compute t ~key ~scheme ~deadline normal w with
          | Hit body -> finish ~entry:body body
          | Now reply -> finish (render t reply)
          | Parked -> ()))))

let conn_loop t id conn =
  let writer = Thread.create writer_loop conn in
  let rec loop () =
    match P.read_frame conn.c_ic with
    | None -> ()
    | exception P.Framing_error msg ->
      (* the stream offset is unreliable now: reply and close *)
      count_error t P.Bad_request;
      ignore (send_raw conn (serialize (err P.Bad_request "framing: %s" msg)))
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | Some payload ->
      (* backpressure: a full window parks the reader here until a
         completer releases a slot *)
      Semaphore.Counting.acquire conn.c_window;
      if Atomic.get t.stopping then begin
        count_error t P.Shutting_down;
        ignore
          (send_raw conn
             ?id:(Option.map fst (P.strip_id payload))
             (serialize (err P.Shutting_down "daemon is draining")));
        Semaphore.Counting.release conn.c_window
      end
      else begin
        let t0 = Clock.now_ns () in
        let fast = P.strip_id payload in
        (* Warm fast path: byte-identical request bytes -> cached reply
           bytes, no JSON parse, one global-lock section. It skips the
           inflight count on purpose: drain only needs inflight for
           completions that outlive their reader thread, and this one
           runs on the reader itself — drain joins the reader, which
           joins the writer, which flushes the reply first. *)
        let frame_hit =
          (* looked up by the raw id-independent request bytes (no
             hashing beyond the table's own): replies are keyed only by
             id-less request bytes — normal forms, and the id-stripped
             bytes of id-less or canonical-id frames — so a hit is
             byte-identical request semantics *)
          let rest = match fast with Some (_, r) -> r | None -> payload in
          locked t (fun () ->
              match Lru.find t.cache rest with
              | Some { rk; body } ->
                bump t.req_counts rk;
                t.result_hits <- t.result_hits + 1;
                Histogram.record t.hist (Clock.elapsed_ms ~since:t0);
                Some body
              | None -> None)
        in
        (match frame_hit with
        | Some body ->
          ignore (send_raw conn ?id:(Option.map fst fast) body);
          Semaphore.Counting.release conn.c_window
        | None ->
          locked t (fun () -> t.inflight <- t.inflight + 1);
          handle_frame t conn ~t0 ~fast payload);
        if not (Atomic.get t.stopping) then loop ()
      end
  in
  (try loop () with _ -> ());
  locked t (fun () -> t.conns <- List.filter (fun (i, _) -> i <> id) t.conns);
  (* let the writer flush everything already queued, then close *)
  Mutex.lock conn.c_wlock;
  conn.c_wclosed <- true;
  Condition.signal conn.c_wcond;
  Mutex.unlock conn.c_wlock;
  (try Thread.join writer with _ -> ());
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loops and drain                                              *)
(* ------------------------------------------------------------------ *)

let refuse t code message cfd =
  count_error t code;
  let oc = Unix.out_channel_of_descr cfd in
  (match
     P.write_frame oc (Json.to_string ~indent:false (P.json_of_reply (P.R_error { code; message })))
   with
  | () -> ()
  | exception (Sys_error _ | Unix.Unix_error _) -> ());
  try Unix.close cfd with Unix.Unix_error _ -> ()

(* one accept loop; [shards] of these run concurrently per listener,
   each in its own domain. A connection's reader thread is created in
   the accepting domain, so frame parsing of different connections can
   proceed in parallel. *)
let accept_loop t l =
  let rec go () =
    if Atomic.get t.stopping then ()
    else
      match Unix.accept l.l_fd with
      | exception
          Unix.Unix_error ((EBADF | EINVAL | EINTR | ECONNABORTED), _, _) ->
        go ()
      | exception Unix.Unix_error _ ->
        (* e.g. EMFILE: back off instead of spinning hot *)
        Unix.sleepf 0.01;
        go ()
      | cfd, _ ->
        (if Atomic.get t.stopping then
           refuse t P.Shutting_down "daemon is draining" cfd
         else
           let decision =
             locked t (fun () ->
                 if List.length t.conns >= t.cfg.max_conns then `Refuse
                 else begin
                   let id = t.next_conn in
                   t.next_conn <- id + 1;
                   t.conns <- (id, cfd) :: t.conns;
                   `Accept id
                 end)
           in
           match decision with
           | `Refuse ->
             refuse t P.Overloaded
               (Printf.sprintf "connection limit (%d) reached"
                  t.cfg.max_conns)
               cfd
           | `Accept id ->
             if l.l_tcp then
               (try Unix.setsockopt cfd Unix.TCP_NODELAY true
                with Unix.Unix_error _ -> ());
             let conn =
               {
                 c_fd = cfd;
                 c_ic = Unix.in_channel_of_descr cfd;
                 c_oc = Unix.out_channel_of_descr cfd;
                 c_wlock = Mutex.create ();
                 c_wcond = Condition.create ();
                 c_outq = Queue.create ();
                 c_wclosed = false;
                 c_window = Semaphore.Counting.make t.cfg.window;
               }
             in
             let th = Thread.create (fun () -> conn_loop t id conn) () in
             locked t (fun () -> t.threads <- th :: t.threads));
        go ()
  in
  go ()

(* The deadline clock, on [run]'s main thread: answer every armed
   waiter whose deadline has passed with a timeout, then sleep on the
   self-pipe until the earliest remaining deadline. The job keeps
   running and caches its result. Returns once a drain has been
   requested and no request is in flight, so deadlines keep firing
   while the daemon drains. *)
let clock t =
  let buf = Bytes.create 64 in
  let rec go () =
    let now = Clock.now_ns () in
    let left (armed_at, ms, _) = ms -. Clock.span_ms armed_at now in
    let expired, next, drained =
      locked t (fun () ->
          let live =
            List.filter (fun (_, _, w) -> not (Atomic.get w.w_done)) t.armed
          in
          let expired, live = List.partition (fun a -> left a <= 0.0) live in
          t.armed <- live;
          ( expired,
            List.fold_left (fun m a -> Float.min m (left a)) Float.infinity live,
            Atomic.get t.stopping && t.inflight = 0 ))
    in
    List.iter
      (fun (_, ms, w) ->
        answer w
          (err P.Timeout
             "deadline of %gms expired; the computation continues and will \
              be cached"
             ms))
      expired;
    if not drained then begin
      let timeout = if next = Float.infinity then -1.0 else next /. 1000.0 in
      (match Unix.select [ t.wake_r ] [] [] timeout with
      | [], _, _ -> ()
      | _ -> ignore (Unix.read t.wake_r buf 0 (Bytes.length buf))
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let drain t shard_domains =
  (* Every in-flight reply has been written. Shut down the read half of
     every connection so idle reader threads wake with EOF and exit —
     this must happen BEFORE joining the shard domains: reader threads
     live on those domains, and a domain does not terminate until all
     its threads do, so joining first would deadlock on any connection
     a client is still holding open. *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun (_, fd) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter Domain.join shard_domains;
  let threads = locked t (fun () -> t.threads) in
  List.iter (fun th -> try Thread.join th with _ -> ()) threads;
  Pool.shutdown t.pool;
  List.iter
    (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
    t.listeners;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  t.cfg.log "drained"

let resolve_host host =
  if host = "" || host = "*" then Unix.inet_addr_any
  else
    match Unix.inet_addr_of_string host with
    | addr -> addr
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        raise
          (Unix.Unix_error
             (Unix.EINVAL, "resolve", Printf.sprintf "unknown host %S" host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let bind_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 256
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { l_fd = fd; l_poke = Unix.ADDR_UNIX path; l_tcp = false }

let bind_tcp (host, port) =
  let addr = resolve_host host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 256
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* poke a wildcard listener via loopback; the bound port survives a
     [port = 0] ephemeral bind *)
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let poke_addr =
    if addr = Unix.inet_addr_any then Unix.inet_addr_loopback else addr
  in
  { l_fd = fd; l_poke = Unix.ADDR_INET (poke_addr, bound_port); l_tcp = true }

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Server.run: jobs must be >= 1";
  if cfg.shards < 1 then invalid_arg "Server.run: shards must be >= 1";
  if cfg.window < 1 then invalid_arg "Server.run: window must be >= 1";
  if cfg.cache_mb < 1 then invalid_arg "Server.run: cache_mb must be >= 1";
  if cfg.max_conns < 1 then invalid_arg "Server.run: max_conns must be >= 1";
  if cfg.high_watermark < 0 || cfg.low_watermark < 0 then
    invalid_arg "Server.run: watermarks must be >= 0";
  let hi_mark =
    if cfg.high_watermark > 0 then cfg.high_watermark else max 8 (4 * cfg.jobs)
  in
  let lo_mark =
    if cfg.low_watermark > 0 || (cfg.high_watermark > 0 && cfg.low_watermark = 0)
    then cfg.low_watermark
    else hi_mark / 2
  in
  if lo_mark >= hi_mark then
    invalid_arg "Server.run: low watermark must be below the high watermark";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Serving allocates heavily (frames, reply bodies) and OCaml 5's
     minor collection stops the world across every domain. The default
     256 KiB minor heap forces hundreds of collections per second at
     saturation, which dominates tail latency on small machines. Grow
     it once, before the pool and shard domains are spawned, so they
     all inherit the setting. Never shrink a user-tuned heap. *)
  let gc = Gc.get () in
  Gc.set
    {
      gc with
      Gc.minor_heap_size = max gc.Gc.minor_heap_size (4 * 1024 * 1024);
      (* Lazier major collection trades heap size for fewer marking
         slices on the serving path; measured p99 at saturation drops
         ~2x over the default 120. Values past ~200 let the heap balloon
         until compaction stalls dominate — do not chase this knob. *)
      Gc.space_overhead = max gc.Gc.space_overhead 200;
    };
  let listeners =
    let u = bind_unix cfg.socket_path in
    match cfg.listen with
    | None -> [ u ]
    | Some hp -> (
      match bind_tcp hp with
      | l -> [ u; l ]
      | exception e ->
        (try Unix.close u.l_fd with Unix.Unix_error _ -> ());
        (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
        raise e)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      pool = Pool.create ~jobs:cfg.jobs;
      listeners;
      hi_mark;
      lo_mark;
      stopping = Atomic.make false;
      wake_r;
      wake_w;
      lock = Mutex.create ();
      cache = Lru.create ~capacity_bytes:(cfg.cache_mb * 1024 * 1024);
      disk = Option.map (fun dir -> Diskcache.create ~dir) cfg.cache_dir;
      pending = Hashtbl.create 16;
      armed = [];
      req_counts = Hashtbl.create 8;
      err_counts = Hashtbl.create 8;
      hist = Histogram.create ();
      result_hits = 0;
      result_misses = 0;
      compiles = 0;
      disk_hits = 0;
      disk_misses = 0;
      shedding = false;
      inflight = 0;
      conns = [];
      threads = [];
      next_conn = 0;
      started = Unix.gettimeofday ();
    }
  in
  if cfg.handle_sigterm then
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t));
  cfg.log
    (Printf.sprintf
       "listening on %s%s (jobs=%d, shards=%d, window=%d, cache=%dMiB%s, \
        max-conns=%d, watermarks=%d/%d)"
       cfg.socket_path
       (match cfg.listen with
       | None -> ""
       | Some (h, p) -> Printf.sprintf " and %s:%d" h p)
       cfg.jobs cfg.shards cfg.window cfg.cache_mb
       (match cfg.cache_dir with
       | None -> ""
       | Some d -> Printf.sprintf " + disk %s" d)
       cfg.max_conns hi_mark lo_mark);
  (* accept loops run on their own domains so different connections'
     frame parsing does not serialize on one runtime lock *)
  let shard_domains =
    List.concat_map
      (fun l ->
        List.init cfg.shards (fun _ -> Domain.spawn (fun () -> accept_loop t l)))
      t.listeners
  in
  (* fire deadlines until [request_stop] (signal handler or shutdown
     request) and the in-flight replies are done, then tear down *)
  clock t;
  drain t shard_domains
