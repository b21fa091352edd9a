(* loadgen — closed- and open-loop load generators for the
   layout-advice daemon.

   Closed loop (--mode closed, the default): each client thread holds
   one connection and sends the request list round-robin, waiting for
   every reply before sending the next (concurrency == --clients).
   Repeated rounds against a warm daemon measure the content-addressed
   cache, not the compiler.

   Open loop (--mode open): each connection gets a sender and a
   receiver thread. The sender schedules Poisson arrivals at
   rate/--clients per connection and pipelines them with request ids,
   never waiting for replies; the receiver correlates replies by id
   with a prefix scan (no JSON parse) and measures latency from the
   {e scheduled} arrival time, so queueing delay from a saturated
   daemon — including sends that left late because the socket
   back-pressured — is charged to the result instead of silently
   stretching the schedule (no coordinated omission). --rates sweeps a
   list of offered loads into one latency-vs-load curve.

   Results go to _artifacts/SERVE.json (schema_version 2) so the
   serving path gets a perf trajectory like BENCH.json.

   With no --socket the daemon is spawned in-process on a private
   socket (plus a loopback TCP listener under --tcp) and shut down at
   the end, which is what `make serve-smoke` / `make serve-load` and CI
   use; --socket PATH|HOST:PORT drives an externally managed daemon
   instead. *)

module Json = Slo_util.Json
module Clock = Slo_util.Clock
module Histogram = Slo_util.Histogram
module P = Slo_server.Protocol
module Codec = Slo_core.Codec
module W = Slo_profile.Weights
module Client = Slo_server.Client
module Server = Slo_server.Server
module Suite = Slo_suite.Suite

let socket = ref ""
let mode = ref "closed"
let tcp = ref false
let clients = ref 8
let rounds = ref 3
let rates = ref ""
let duration_s = ref 5.0
let kind = ref "advise"
let jobs = ref 0
let cache_mb = ref 64
let cache_dir = ref ""
let window = ref 32
let high_watermark = ref 0
let low_watermark = ref 0
let deadline_ms = ref 0.0
let out = ref "_artifacts/SERVE.json"
let check_hit_rate = ref (-1.0)
let check_p99_ms = ref (-1.0)
let check_disk_warm = ref false
let expect_shed = ref false
let verbose = ref false

let spec =
  [
    ("--socket", Arg.Set_string socket,
     "EP  drive an already-running daemon at PATH or HOST:PORT (default: \
      spawn in-process)");
    ("--mode", Arg.Symbol ([ "closed"; "open" ], fun s -> mode := s),
     "  closed loop (concurrency = --clients) or open loop (Poisson \
      arrivals at --rates) (closed)");
    ("--tcp", Arg.Set tcp,
     "  spawn the daemon with a loopback TCP listener and drive that");
    ("--clients", Arg.Set_int clients, "N  connections / client threads (8)");
    ("--rounds", Arg.Set_int rounds,
     "N  closed loop: times each client replays the request list (3)");
    ("--rates", Arg.Set_string rates,
     "R1,R2,...  open loop: offered request rates (req/s) to sweep");
    ("--duration-s", Arg.Set_float duration_s,
     "S  open loop: seconds per swept rate (5)");
    ("--kind",
     Arg.Symbol ([ "advise"; "bench"; "mixed"; "shed" ], fun s -> kind := s),
     "  request mix: advise | bench | mixed | shed (cached advise + \
      always-miss bench) (advise)");
    ("--jobs", Arg.Set_int jobs,
     "N  worker domains for a spawned daemon (0 = auto)");
    ("--cache-mb", Arg.Set_int cache_mb,
     "MB  cache budget for a spawned daemon (64)");
    ("--cache-dir", Arg.Set_string cache_dir,
     "DIR  persistent reply cache for a spawned daemon (off)");
    ("--window", Arg.Set_int window,
     "N  per-connection in-flight window of a spawned daemon (32)");
    ("--high-watermark", Arg.Set_int high_watermark,
     "N  shed threshold of a spawned daemon (0 = auto)");
    ("--low-watermark", Arg.Set_int low_watermark,
     "N  shed-stop threshold of a spawned daemon (0 = auto)");
    ("--deadline-ms", Arg.Set_float deadline_ms,
     "MS  per-request deadline (0 = none)");
    ("--out", Arg.Set_string out, "PATH  result artifact (_artifacts/SERVE.json)");
    ("--check-hit-rate", Arg.Set_float check_hit_rate,
     "PCT  exit non-zero if the measured result-cache hit rate is lower");
    ("--check-p99-ms", Arg.Set_float check_p99_ms,
     "MS  open loop: exit non-zero if p99 exceeds this at any sustained \
      rate (one achieving >= 95% of offered)");
    ("--check-disk-warm", Arg.Set check_disk_warm,
     "  exit non-zero unless warmup was served from the persistent \
      cache (a restart onto a populated --cache-dir)");
    ("--expect-shed", Arg.Set expect_shed,
     "  exit non-zero unless the daemon shed with structured overloaded \
      replies and zero transport errors");
    ("--verbose", Arg.Set verbose, "  daemon + progress logs on stderr");
  ]

let usage = "loadgen [options]  (see bench/loadgen.ml)"

let log fmt =
  Printf.ksprintf (fun s -> if !verbose then Printf.eprintf "loadgen: %s\n%!" s) fmt

let deadline () = if !deadline_ms > 0.0 then Some !deadline_ms else None

let advise_req (e : Suite.entry) =
  P.Advise
    { src = e.source; scheme = Some (Codec.scheme_name W.ISPBO); args = [];
      pool = false; deadline_ms = deadline () }

let bench_req ?args (e : Suite.entry) =
  P.Bench
    {
      src = e.source;
      scheme = Some (Codec.scheme_name W.SPBO);
      args = Option.value ~default:e.train_args args;
      pool = false;
      deadline_ms = deadline ();
    }

(* always-miss benches for the shed mix: a distinct source suffix =
   a distinct content digest, so each one reaches the compute pool
   while running the entry's own training input — varying the args
   instead would either break [main]'s arity (a runtime error, not a
   miss) or scale the workload without bound. povray is the cheapest
   roster bench by an order of magnitude (~80 ms); the point is to
   fill the queue, not to grind the pool. *)
let unique_benches n =
  let e = try Suite.find "povray" with Not_found -> List.hd Suite.roster in
  List.init n (fun i ->
      let e = { e with Suite.source = e.Suite.source ^ "\n// uniq " ^ string_of_int i } in
      bench_req e)

(* (warmup list, measured list): the shed mix measures requests it
   deliberately never warms *)
let requests () =
  let advises = List.map advise_req Suite.roster in
  match !kind with
  | "advise" -> (advises, advises)
  | "bench" ->
    let b = List.map (fun e -> bench_req e) Suite.roster in
    (b, b)
  | "mixed" ->
    let m = advises @ [ bench_req (List.hd Suite.roster) ] in
    (m, m)
  | _ ->
    (* shed: every 4th measured request is an uncacheable bench *)
    let benches = unique_benches 256 in
    let rec weave a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | x :: a, y :: b -> x :: y :: weave a b
    in
    (advises, weave (advises @ advises @ advises) benches)

let serialize req = Json.to_string ~indent:false (P.json_of_request req)

let fetch_stats conn =
  match Client.rpc conn P.Stats with
  | P.R_stats s -> s
  | _ -> failwith "stats request did not return stats"

let connect ~endpoint = Client.connect ~retry_for_s:10.0 ~endpoint ()

let latency_json hist =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count hist));
      ("p50", Json.Float (Histogram.percentile hist 50.0));
      ("p95", Json.Float (Histogram.percentile hist 95.0));
      ("p99", Json.Float (Histogram.percentile hist 99.0));
      ("max", Json.Float (Histogram.max_ms hist));
      ("mean", Json.Float (Histogram.mean_ms hist));
    ]

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

type closed_result = { hist : Histogram.t; mutable errors : int }

let closed_client ~endpoint ~reqs ~rounds r =
  let conn = connect ~endpoint in
  for _ = 1 to rounds do
    List.iter
      (fun req ->
        let t0 = Clock.now_ns () in
        (match Client.rpc conn req with
        | P.R_error _ -> r.errors <- r.errors + 1
        | _ -> ());
        Histogram.record r.hist (Clock.elapsed_ms ~since:t0))
      reqs
  done;
  Client.close conn

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Request ids live in a fixed ring: id = send index mod 16384. The
   ring bounds the schedule table and lets the request bytes for every
   (id, payload) pair be injected once up front — the sender's steady
   state is a table read and a buffered write, no per-send allocation.
   A slot is only reused 16384 sends later, far beyond the server's
   in-flight window, so a live id never collides with an outstanding
   one. *)
let ring_bits = 14

let ring = 1 lsl ring_bits

let ring_mask = ring - 1

type open_conn = {
  oc_lock : Mutex.t; (* guards sched + sent/done below *)
  sched : int64 array; (* id -> scheduled send time, ns *)
  mutable sent : int;
  mutable sender_done : bool;
  mutable marker_seen : bool; (* sentinel reply arrived *)
  mutable late : int; (* left > 1ms after schedule (backpressure) *)
  hist : Histogram.t;
  mutable received : int;
  err_counts : (string, int) Hashtbl.t; (* error code -> replies *)
  mutable transport_errors : int;
}

let oc_create () =
  {
    oc_lock = Mutex.create ();
    sched = Array.make ring 0L;
    sent = 0;
    sender_done = false;
    marker_seen = false;
    late = 0;
    hist = Histogram.create ();
    received = 0;
    err_counts = Hashtbl.create 8;
    transport_errors = 0;
  }

(* End-of-stream marker. The receiver must never block on the socket
   with nothing outstanding, or it races the sender's last send against
   its own termination check: with replies completing out of order
   there is no "last reply" to key off. So after its final request the
   sender emits one Stats probe under this id; the receiver only exits
   once it has both the marker and every counted reply, which means any
   blocking read has at least one frame still due. *)
let sentinel_id = 999_999_999

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Poisson sender: the schedule is absolute, derived once from the
   rate — a slow daemon makes sends late, never sparser. Sends due
   within the same half-millisecond go out as one burst under a single
   flush: at tens of kHz a sleep + write syscall per request costs more
   than the requests. *)
let open_sender ~conn ~table ~rate ~duration st oc =
  let t_start = Clock.now_ns () in
  let horizon = Int64.of_float (duration *. 1e9) in
  let next = ref 0.0 (* scheduled offset from t_start, seconds *) in
  (* Frames batch in the out_channel between flushes; left uncapped
     they would sit there until the 64 KiB buffer spills (~40 ms of
     traffic at per-connection rates), and that hold time is measured
     latency — the schedule is the clock. 16 frames ≈ 2.5 ms of
     traffic: still one write syscall per 16 requests. *)
  let max_batch = 16 in
  let unflushed = ref 0 in
  (try
     let i = ref 0 in
     let continue = ref true in
     while !continue do
       next :=
         !next +. (-.Float.log (1.0 -. Random.State.float st 1.0) /. rate);
       let sched_ns =
         Int64.add t_start (Int64.of_float (!next *. 1e9))
       in
       if Int64.sub sched_ns t_start > horizon then continue := false
       else begin
         let wait_s = Clock.span_ms (Clock.now_ns ()) sched_ns /. 1000.0 in
         if wait_s > 0.0005 then begin
           if !unflushed > 0 then begin
             Client.flush_out conn;
             unflushed := 0
           end;
           Unix.sleepf wait_s
         end;
         let id = !i land ring_mask in
         Mutex.lock oc.oc_lock;
         oc.sched.(id) <- sched_ns;
         oc.sent <- oc.sent + 1;
         if Clock.span_ms sched_ns (Clock.now_ns ()) > 1.0 then
           oc.late <- oc.late + 1;
         Mutex.unlock oc.oc_lock;
         Client.send_raw_noflush conn table.(id);
         incr unflushed;
         if !unflushed >= max_batch then begin
           Client.flush_out conn;
           unflushed := 0;
           (* A sender catching up on a backlog never blocks, and a
              systhread that never blocks holds its domain's runtime
              lock until the 50 ms tick — several senders doing that
              back to back starve every receiver in this domain for
              hundreds of ms. One yield per batch bounds the hold. *)
           Thread.yield ()
         end;
         incr i
       end
     done;
     if !unflushed > 0 then Client.flush_out conn
   with Client.Protocol_error _ ->
     Mutex.lock oc.oc_lock;
     oc.transport_errors <- oc.transport_errors + 1;
     Mutex.unlock oc.oc_lock);
  Mutex.lock oc.oc_lock;
  oc.sender_done <- true;
  Mutex.unlock oc.oc_lock;
  (* the marker goes out after sender_done so the receiver's exit check
     sees the final [sent] once the marker reply arrives *)
  try
    Client.send_raw conn
      (P.inject_id ~id:sentinel_id
         (Json.to_string ~indent:false (P.json_of_request P.Stats)))
  with Client.Protocol_error _ ->
    Mutex.lock oc.oc_lock;
    oc.transport_errors <- oc.transport_errors + 1;
    Mutex.unlock oc.oc_lock

let open_receiver ~conn oc =
  let finished () =
    Mutex.lock oc.oc_lock;
    let f = oc.sender_done && oc.marker_seen && oc.received >= oc.sent in
    Mutex.unlock oc.oc_lock;
    f
  in
  try
    while not (finished ()) do
      let payload = Client.recv_raw conn in
      let t_now = Clock.now_ns () in
      let id, status = P.scan_reply_header payload in
      Mutex.lock oc.oc_lock;
      if id = Some sentinel_id then oc.marker_seen <- true
      else begin
        (match id with
        | Some id when id < Array.length oc.sched && oc.sched.(id) <> 0L ->
          Histogram.record oc.hist (Clock.span_ms oc.sched.(id) t_now)
        | _ -> ());
        (match status with
        | Ok () -> ()
        | Error code -> bump oc.err_counts code);
        oc.received <- oc.received + 1
      end;
      Mutex.unlock oc.oc_lock
    done
  with Client.Protocol_error _ ->
    Mutex.lock oc.oc_lock;
    oc.transport_errors <- oc.transport_errors + 1;
    Mutex.unlock oc.oc_lock

type rate_point = {
  rp_offered : float;
  rp_achieved : float;
  rp_elapsed_s : float;
  rp_sent : int;
  rp_received : int;
  rp_late : int;
  rp_hist : Histogram.t;
  rp_errors : (string * int) list;
  rp_transport_errors : int;
}

let run_rate ~endpoint ~table ~rate ~duration ~conns seed =
  let ocs = List.init conns (fun _ -> oc_create ()) in
  let handles =
    List.mapi
      (fun i oc ->
        let conn = connect ~endpoint in
        let st = Random.State.make [| seed; i; int_of_float rate |] in
        let sender =
          Thread.create
            (fun () ->
              open_sender ~conn ~table ~rate:(rate /. float conns)
                ~duration st oc)
            ()
        in
        let receiver = Thread.create (fun () -> open_receiver ~conn oc) () in
        (conn, sender, receiver))
      ocs
  in
  let t0 = Clock.now_ns () in
  List.iter
    (fun (conn, sender, receiver) ->
      Thread.join sender;
      Thread.join receiver;
      Client.close conn)
    handles;
  let elapsed_s = Clock.elapsed_ms ~since:t0 /. 1000.0 in
  let hist = Histogram.create () in
  let errs = Hashtbl.create 8 in
  let sent, received, late, transport =
    List.fold_left
      (fun (s, r, l, t) oc ->
        Histogram.merge hist oc.hist;
        Hashtbl.iter
          (fun k v ->
            Hashtbl.replace errs k
              (v + Option.value ~default:0 (Hashtbl.find_opt errs k)))
          oc.err_counts;
        (s + oc.sent, r + oc.received, l + oc.late, t + oc.transport_errors))
      (0, 0, 0, 0) ocs
  in
  {
    rp_offered = rate;
    rp_achieved = (if elapsed_s > 0.0 then float received /. elapsed_s else 0.0);
    rp_elapsed_s = elapsed_s;
    rp_sent = sent;
    rp_received = received;
    rp_late = late;
    rp_hist = hist;
    rp_errors =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) errs []);
    rp_transport_errors = transport;
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !clients < 1 || !rounds < 1 || !duration_s <= 0.0 then begin
    prerr_endline "loadgen: --clients, --rounds and --duration-s must be > 0";
    exit 2
  end;
  let rate_list =
    if String.equal !rates "" then []
    else
      List.map
        (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some r when r > 0.0 -> r
          | _ ->
            prerr_endline ("loadgen: bad rate " ^ s);
            exit 2)
        (String.split_on_char ',' !rates)
  in
  if !mode = "open" && rate_list = [] then begin
    prerr_endline "loadgen: --mode open needs --rates";
    exit 2
  end;
  let spawned = String.equal !socket "" in
  let socket_path =
    if spawned then
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "slo-loadgen-%d.sock" (Unix.getpid ()))
    else !socket
  in
  (* a spawned TCP daemon listens on a loopback port probed free here;
     the bind-close-reuse window is ours alone on a CI box *)
  let tcp_port =
    if spawned && !tcp then begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      Unix.close fd;
      Some port
    end
    else None
  in
  let endpoint =
    match tcp_port with
    | Some port -> `Tcp ("127.0.0.1", port)
    | None -> if spawned then `Unix socket_path else Client.endpoint_of_string !socket
  in
  let transport =
    match endpoint with `Tcp _ -> "tcp" | `Unix _ -> "unix"
  in
  let server_jobs =
    if !jobs > 0 then !jobs else Slo_exec.Pool.default_jobs ()
  in
  let server_thread =
    if not spawned then None
    else begin
      log "spawning in-process daemon on %s%s" socket_path
        (match tcp_port with
        | Some p -> Printf.sprintf " + 127.0.0.1:%d" p
        | None -> "");
      let cfg =
        { (Server.default_config ~socket_path) with
          jobs = server_jobs;
          listen = Option.map (fun p -> ("127.0.0.1", p)) tcp_port;
          window = !window;
          cache_mb = !cache_mb;
          cache_dir = (if !cache_dir = "" then None else Some !cache_dir);
          max_conns = max 64 (2 * !clients);
          high_watermark = !high_watermark;
          low_watermark = !low_watermark;
          handle_sigterm = false;
          log = (fun s -> log "daemon: %s" s);
        }
      in
      Some (Thread.create Server.run cfg)
    end
  in
  let warm_reqs, measured_reqs = requests () in
  (* warmup: populate the cache once so the measured phase exercises the
     content-addressed hit path, which is the serving steady state *)
  log "warmup: %d unique requests" (List.length warm_reqs);
  let warm = connect ~endpoint in
  let warm_errors =
    List.fold_left
      (fun acc req ->
        match Client.rpc warm req with
        | P.R_error { code = P.Timeout; _ } ->
          (* the computation continues server-side; await it via a
             repeat request below *)
          acc + 1
        | P.R_error { code; message } ->
          Printf.eprintf "loadgen: warmup error [%s]: %s\n"
            (P.error_code_name code) message;
          acc + 1
        | _ -> acc)
      0 warm_reqs
  in
  let s0 = fetch_stats warm in
  let hist = Histogram.create () in
  let errors = ref 0 in
  let curve = ref [] in
  let wall_s, total, throughput =
    match !mode with
    | "open" ->
      let payloads = Array.of_list (List.map serialize measured_reqs) in
      let n_payloads = Array.length payloads in
      let table =
        Array.init ring (fun k -> P.inject_id ~id:k payloads.(k mod n_payloads))
      in
      let t0 = Clock.now_ns () in
      List.iter
        (fun rate ->
          log "open loop: %.0f req/s for %.1fs over %d conns" rate !duration_s
            !clients;
          let rp =
            run_rate ~endpoint ~table ~rate ~duration:!duration_s
              ~conns:!clients 0x5105
          in
          Histogram.merge hist rp.rp_hist;
          errors :=
            !errors
            + List.fold_left (fun a (_, n) -> a + n) 0 rp.rp_errors
            + rp.rp_transport_errors;
          log
            "  offered %.0f achieved %.0f req/s, p99=%.2fms, %d/%d late, \
             errors=[%s]%s"
            rp.rp_offered rp.rp_achieved
            (Histogram.percentile rp.rp_hist 99.0)
            rp.rp_late rp.rp_sent
            (String.concat " "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) rp.rp_errors))
            (if rp.rp_transport_errors > 0 then
               Printf.sprintf " transport=%d" rp.rp_transport_errors
             else "");
          curve := rp :: !curve)
        rate_list;
      let wall_s = Clock.elapsed_ms ~since:t0 /. 1000.0 in
      let total = Histogram.count hist in
      let best =
        List.fold_left (fun a rp -> Float.max a rp.rp_achieved) 0.0 !curve
      in
      (wall_s, total, best)
    | _ ->
      log "measuring: %d clients x %d rounds x %d requests" !clients !rounds
        (List.length measured_reqs);
      let t0 = Clock.now_ns () in
      let results : closed_result list =
        List.init !clients (fun _ -> { hist = Histogram.create (); errors = 0 })
      in
      let threads =
        List.map
          (fun r ->
            Thread.create
              (closed_client ~endpoint ~reqs:measured_reqs ~rounds:!rounds)
              r)
          results
      in
      List.iter Thread.join threads;
      let wall_s = Clock.elapsed_ms ~since:t0 /. 1000.0 in
      List.iter
        (fun (r : closed_result) ->
          Histogram.merge hist r.hist;
          errors := !errors + r.errors)
        results;
      let total = Histogram.count hist in
      (wall_s, total, if wall_s > 0.0 then float total /. wall_s else 0.0)
  in
  let curve = List.rev !curve in
  let errors = !errors in
  let s1 = fetch_stats warm in
  Client.close warm;
  let d_hits = s1.P.s_result_hits - s0.P.s_result_hits in
  let d_misses = s1.P.s_result_misses - s0.P.s_result_misses in
  let hit_rate =
    if d_hits + d_misses = 0 then 0.0
    else 100.0 *. float d_hits /. float (d_hits + d_misses)
  in
  let shed_replies =
    List.fold_left
      (fun acc rp ->
        acc
        + List.fold_left
            (fun a (code, n) -> if code = "overloaded" then a + n else a)
            0 rp.rp_errors)
      0 curve
  in
  let transport_errors =
    List.fold_left (fun a rp -> a + rp.rp_transport_errors) 0 curve
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 2);
        ("tool", Json.String "slo-loadgen");
        ("git_rev", Json.String (Slo_bench.Engine.git_rev ()));
        ("mode", Json.String !mode);
        ("transport", Json.String transport);
        ("kind", Json.String !kind);
        ("clients", Json.Int !clients);
        ("rounds", Json.Int !rounds);
        ("unique_requests", Json.Int (List.length measured_reqs));
        ("total_requests", Json.Int total);
        ("errors", Json.Int errors);
        ("warmup_errors", Json.Int warm_errors);
        ("duration_s", Json.Float wall_s);
        ("throughput_rps", Json.Float throughput);
        ("latency_ms", latency_json hist);
        ( "open_loop",
          Json.List
            (List.map
               (fun rp ->
                 Json.Obj
                   [
                     ("offered_rps", Json.Float rp.rp_offered);
                     ("achieved_rps", Json.Float rp.rp_achieved);
                     ("duration_s", Json.Float rp.rp_elapsed_s);
                     ("sent", Json.Int rp.rp_sent);
                     ("received", Json.Int rp.rp_received);
                     ("late_sends", Json.Int rp.rp_late);
                     ( "late_pct",
                       Json.Float
                         (if rp.rp_sent = 0 then 0.0
                          else 100.0 *. float rp.rp_late /. float rp.rp_sent) );
                     ( "errors",
                       Json.Obj
                         (List.map (fun (k, v) -> (k, Json.Int v)) rp.rp_errors)
                     );
                     ("transport_errors", Json.Int rp.rp_transport_errors);
                     ("latency_ms", latency_json rp.rp_hist);
                   ])
               curve) );
        ( "cache",
          Json.Obj
            [
              ("result_hits", Json.Int d_hits);
              ("result_misses", Json.Int d_misses);
              ("hit_rate_pct", Json.Float hit_rate);
              (* the daemon caches replies only: programs compiled and
                 entries evicted in the measured phase, and the bytes
                 the reply LRU holds at its end *)
              ("compiles", Json.Int (s1.P.s_ir_misses - s0.P.s_ir_misses));
              ( "evictions",
                Json.Int (s1.P.s_cache_evictions - s0.P.s_cache_evictions) );
              ("cache_bytes", Json.Int s1.P.s_cache_bytes);
              ("disk_hits", Json.Int (s1.P.s_disk_hits - s0.P.s_disk_hits));
              ("disk_misses", Json.Int (s1.P.s_disk_misses - s0.P.s_disk_misses));
              (* absolute count at the end of warmup: a daemon
                 restarted onto a populated --cache-dir serves the
                 warmup itself from disk, which the measured-phase
                 deltas above cannot see *)
              ("disk_hits_warmup", Json.Int s0.P.s_disk_hits);
            ] );
        ( "server",
          Json.Obj
            [
              ("jobs", Json.Int server_jobs);
              ("spawned", Json.Bool spawned);
              (* the daemon's own service-time histogram (read -> reply
                 enqueued), next to the client-observed schedule-based
                 numbers above: the gap between the two is queueing —
                 client buffering, socket backlog and scheduler delay *)
              ( "latency_ms",
                Json.Obj
                  [
                    ("count", Json.Int s1.P.s_latency.P.l_count);
                    ("p50", Json.Float s1.P.s_latency.P.l_p50_ms);
                    ("p95", Json.Float s1.P.s_latency.P.l_p95_ms);
                    ("p99", Json.Float s1.P.s_latency.P.l_p99_ms);
                    ("max", Json.Float s1.P.s_latency.P.l_max_ms);
                  ] );
            ] );
      ]
  in
  Slo_util.Files.mkdir_p (Filename.dirname !out);
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "loadgen: %s/%s: %d requests in %.2fs (%.1f req/s), p50=%.2fms \
     p95=%.2fms p99=%.2fms, result-cache hit rate %.1f%%, %d errors -> %s\n"
    !mode transport total wall_s throughput
    (Histogram.percentile hist 50.0)
    (Histogram.percentile hist 95.0)
    (Histogram.percentile hist 99.0)
    hit_rate errors !out;
  (if spawned then
     let conn = connect ~endpoint in
     ignore (Client.rpc conn P.Shutdown);
     Client.close conn;
     Option.iter Thread.join server_thread);
  let failed_hit_rate = !check_hit_rate >= 0.0 && hit_rate < !check_hit_rate in
  if failed_hit_rate then
    Printf.eprintf "loadgen: FAIL hit rate %.1f%% below required %.1f%%\n"
      hit_rate !check_hit_rate;
  let failed_p99 =
    !check_p99_ms >= 0.0
    && List.exists
         (fun rp ->
           rp.rp_achieved >= 0.95 *. rp.rp_offered
           && Histogram.percentile rp.rp_hist 99.0 > !check_p99_ms)
         curve
  in
  if failed_p99 then
    Printf.eprintf
      "loadgen: FAIL p99 above %.1fms at a sustained rate (see %s)\n"
      !check_p99_ms !out;
  let failed_disk_warm = !check_disk_warm && s0.P.s_disk_hits = 0 in
  if failed_disk_warm then
    Printf.eprintf
      "loadgen: FAIL expected warmup to hit the persistent cache \
       (disk_hits_warmup = 0)\n";
  let failed_shed =
    !expect_shed && (shed_replies = 0 || transport_errors > 0)
  in
  if failed_shed then
    Printf.eprintf
      "loadgen: FAIL expected structured shedding: %d overloaded replies, \
       %d transport errors\n"
      shed_replies transport_errors;
  (* in shed mode overloaded replies are the point, not a failure *)
  let hard_errors = if !kind = "shed" then transport_errors else errors in
  if hard_errors > 0 then
    Printf.eprintf "loadgen: %d request errors\n" hard_errors;
  if failed_hit_rate || failed_p99 || failed_disk_warm || failed_shed
     || hard_errors > 0
  then exit 1
