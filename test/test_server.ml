(* The advice daemon: wire protocol codecs, framing, and end-to-end
   behaviour of an in-process server — caching, structured errors,
   deadlines, the connection limit, and graceful drain (both the
   shutdown request and SIGTERM).

   Every end-to-end test spawns its own server on a private socket in a
   background thread with [handle_sigterm = false] (except the SIGTERM
   test), so tests are independent and the suite leaves no processes or
   socket files behind. *)

module P = Slo_server.Protocol
module Server = Slo_server.Server
module Client = Slo_server.Client
module Json = Slo_util.Json

(* ---------------- sources ---------------- *)

(* Figure-1-shaped hot/cold struct, sized for test speed: advise and
   bench both have to run the program (profile collection, before/after
   measurement), so keep the trip counts small. [tag] makes each test's
   source distinct, i.e. a distinct cache key. *)
let hot_cold_src tag =
  Printf.sprintf
    "struct s%s { long hot1; double cold1; long hot2; double cold2; };\n\
     struct s%s *arr;\n\
     long n;\n\
     int main() { long it; long i; long s = 0; n = 64;\n\
     arr = (struct s%s*)malloc(n * sizeof(struct s%s));\n\
     for (it = 0; it < n; it++) { arr[it].hot1 = it; arr[it].hot2 = 2*it;\n\
     arr[it].cold1 = 0.5; arr[it].cold2 = 0.25; }\n\
     for (it = 0; it < 10; it++) {\n\
     for (i = 0; i < n; i++) { s = s + arr[i].hot1 + arr[i].hot2; } }\n\
     printf(\"%%ld\\n\", s); return 0; }\n"
    tag tag tag tag

(* a single-malloc linked ring: the shape analysis proves it poolable,
   so an advise with pool=true decides a pooling plan for it *)
let ring_src tag =
  Printf.sprintf
    "struct r%s { long w; struct r%s *next; };\n\
     struct r%s *items;\n\
     int main() { long i; long acc; struct r%s *p;\n\
     items = (struct r%s*)malloc(16 * sizeof(struct r%s));\n\
     for (i = 0; i < 16; i++) { items[i].w = i;\n\
     items[i].next = items + ((i + 1) %% 16); }\n\
     acc = 0; p = items;\n\
     for (i = 0; i < 48; i++) { acc = acc + p->w; p = p->next; }\n\
     printf(\"%%ld\\n\", acc); return 0; }\n"
    tag tag tag tag tag tag

(* a slow program: enough iterations that it outlives a 1 ms deadline *)
let slow_src tag =
  Printf.sprintf
    "struct t%s { long a; long b; };\n\
     int main() { long i; long j; long s = 0;\n\
     for (i = 0; i < 2000; i++) { for (j = 0; j < 2000; j++) {\n\
     s = s + i * j; } }\n\
     printf(\"%%ld\\n\", s); return 0; }\n"
    tag

(* ---------------- harness ---------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "slo-test-%d-%d.sock" (Unix.getpid ()) !n)

(* The harness tracks every connection a test opens so that a failing
   test cannot leak one: a leaked connection can pin the server at its
   connection limit, the finally's shutdown request then gets refused
   as [overloaded], and [Thread.join] hangs the whole suite. *)
let with_server ?(jobs = 1) ?(max_conns = 16) ?(handle_sigterm = false)
    ?listen ?cache_dir ?(cache_mb = 64) ?(high_watermark = 0)
    ?(low_watermark = 0) f =
  let socket_path = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path) with
      jobs;
      max_conns;
      cache_mb;
      handle_sigterm;
      listen;
      cache_dir;
      high_watermark;
      low_watermark;
    }
  in
  let th = Thread.create Server.run cfg in
  let live = ref [] in
  let lmx = Mutex.create () in
  let connect () =
    let c = Client.connect_socket ~retry_for_s:10.0 ~socket:socket_path () in
    Mutex.lock lmx;
    live := c :: !live;
    Mutex.unlock lmx;
    c
  in
  let close c =
    Mutex.lock lmx;
    live := List.filter (fun c' -> c' != c) !live;
    Mutex.unlock lmx;
    Client.close c
  in
  Fun.protect
    ~finally:(fun () ->
      (* close leftovers (only present when the test body raised) *)
      List.iter (fun c -> try Client.close c with _ -> ()) !live;
      (* shut the server down; the refusal retry covers the window
         where closed connections are not yet deregistered *)
      let rec request_shutdown attempts =
        if attempts > 0 then
          match Client.connect_socket ~retry_for_s:0.0 ~socket:socket_path () with
          | exception _ -> () (* already drained *)
          | conn -> (
            match Client.rpc conn P.Shutdown with
            | P.R_shutdown | (exception _) -> Client.close conn
            | _reply ->
              Client.close conn;
              Unix.sleepf 0.05;
              request_shutdown (attempts - 1))
      in
      request_shutdown 100;
      Thread.join th;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f ~connect ~close socket_path)

let advise ?scheme ?(pool = false) ?deadline_ms src =
  P.Advise { src; scheme; args = []; pool; deadline_ms }

let bench ?scheme ?(pool = false) ?deadline_ms src =
  P.Bench { src; scheme; args = []; pool; deadline_ms }

let wire reply = Json.to_string (P.json_of_reply reply)

(* one raw frame's reply bytes, its id stripped *)
let call_raw conn payload =
  Client.send_raw conn payload;
  let reply = Client.recv_raw conn in
  match P.strip_id reply with Some (_, rest) -> rest | None -> reply

(* a computed reply's bytes as a cache hit serves them *)
let cached_as bytes =
  Astring.String.concat ~sep:"\"cached\":true"
    (Astring.String.cuts ~sep:"\"cached\":false" bytes)

let stats conn =
  match Client.rpc conn P.Stats with
  | P.R_stats s -> s
  | r -> Alcotest.failf "stats failed: %s" (wire r)

let expect_error name code reply =
  match reply with
  | P.R_error e ->
    Alcotest.(check string)
      (name ^ " code")
      (P.error_code_name code)
      (P.error_code_name e.code)
  | _ -> Alcotest.failf "%s: expected %s error" name (P.error_code_name code)

(* ---------------- framing ---------------- *)

(* a temp file, not a pipe: a 100 KB frame would deadlock a same-thread
   pipe writer against the 64 KB kernel buffer *)
let frames_via_file payloads k =
  let path = Filename.temp_file "slo_frames" ".bin" in
  let oc = open_out_bin path in
  List.iter (P.write_frame oc) payloads;
  close_out oc;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      Sys.remove path)
    (fun () -> k ic)

let framing_roundtrip () =
  let payloads = [ "{}"; ""; String.make 100_000 'x'; "{\"k\":\"\xffbin\"}" ] in
  frames_via_file payloads (fun ic ->
      List.iter
        (fun expect ->
          match P.read_frame ic with
          | Some got -> Alcotest.(check string) "payload" expect got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Alcotest.(check bool) "clean EOF is None" true (P.read_frame ic = None))

let framing_errors () =
  let raw s k =
    let r, w = Unix.pipe () in
    let oc = Unix.out_channel_of_descr w in
    let ic = Unix.in_channel_of_descr r in
    output_string oc s;
    close_out oc;
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> k ic)
  in
  let bad name s =
    raw s (fun ic ->
        match P.read_frame ic with
        | exception P.Framing_error _ -> ()
        | Some _ | None -> Alcotest.failf "%s: expected Framing_error" name)
  in
  bad "garbage length" "abc\nxyz";
  bad "negative length" "-3\nxyz";
  bad "missing newline" "12345678901234567890";
  bad "EOF mid-payload" "10\nabc";
  bad "EOF mid-length" "123";
  bad "over-limit frame" (string_of_int (P.max_frame_bytes + 1) ^ "\n")

(* ---------------- codecs ---------------- *)

let codec_error_codes () =
  let all =
    [
      P.Bad_request; P.Parse_error; P.Type_error; P.Legality_error;
      P.Worker_crash; P.Timeout; P.Overloaded; P.Shutting_down;
    ]
  in
  List.iter
    (fun c ->
      let name = P.error_code_name c in
      Alcotest.(check bool)
        ("roundtrip " ^ name)
        true
        (P.error_code_of_name name = Some c))
    all;
  Alcotest.(check bool) "unknown name" true (P.error_code_of_name "nope" = None)

let codec_requests () =
  let roundtrip req =
    match P.request_of_json (Json.of_string (Json.to_string (P.json_of_request req))) with
    | Ok got -> Alcotest.(check bool) "request roundtrip" true (got = req)
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  roundtrip (advise "int main() { return 0; }");
  roundtrip
    (P.Advise
       {
         src = "x";
         scheme = Some "spbo";
         args = [ 3; 14 ];
         pool = true;
         deadline_ms = Some 250.0;
       });
  roundtrip
    (P.Bench
       {
         src = "y";
         scheme = Some "fco";
         args = [];
         pool = false;
         deadline_ms = None;
       });
  roundtrip (bench ~pool:true ~deadline_ms:50.0 "y");
  (* [pool] is omitted at its default, so a pool-less frame is the same
     bytes an older peer writes *)
  Alcotest.(check string) "bench without pool"
    "{\"kind\":\"bench\",\"src\":\"y\"}"
    (Json.to_string ~indent:false (P.json_of_request (bench "y")));
  roundtrip (P.Check { src = "z"; relax = false; deadline_ms = None });
  roundtrip (P.Check { src = "z"; relax = true; deadline_ms = Some 100.0 });
  roundtrip
    (P.Tune
       {
         src = "w";
         scheme = Some "ispbo";
         args = [ 7 ];
         beam = Some 2;
         deadline_ms = Some 500.0;
       });
  roundtrip
    (P.Tune
       {
         src = "w";
         scheme = None;
         args = [];
         beam = None;
         deadline_ms = None;
       });
  roundtrip P.Stats;
  roundtrip P.Shutdown;
  let bad name s =
    match P.request_of_json (Json.of_string s) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected decode error" name
  in
  bad "not an object" "[1]";
  bad "missing kind" "{\"src\":\"x\"}";
  bad "unknown kind" "{\"kind\":\"frobnicate\"}";
  bad "advise without src" "{\"kind\":\"advise\"}";
  bad "non-int args" "{\"kind\":\"advise\",\"src\":\"x\",\"args\":[\"a\"]}"

let codec_replies () =
  let roundtrip reply =
    match P.reply_of_json (Json.of_string (Json.to_string (P.json_of_reply reply))) with
    | Ok got -> Alcotest.(check bool) "reply roundtrip" true (got = reply)
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  roundtrip (P.R_advise { a_report = "report text\nwith lines"; a_cached = true });
  roundtrip
    (P.R_bench
       {
         b_cycles_before = 399301542;
         b_cycles_after = 258462741;
         b_speedup_pct = 54.5;
         b_plans = [ "peel f1_neuron: 8 pieces, 0 dead" ];
         b_cached = false;
       });
  roundtrip
    (P.R_check
       {
         c_report = "demo.mc:3:7: error: [CSTF] ...";
         c_sarif = "{\"version\": \"2.1.0\"}";
         c_invalidating = 2;
         c_cached = true;
       });
  roundtrip
    (P.R_tune
       {
         t_plans = [ "split:s:hot=0,2:cold=1,3:dead="; "pad:s__hot:bytes=8" ];
         t_heuristic_plans = [ "peel:s:live=0,1:dead=:globals=arr" ];
         t_baseline_cycles = 1000;
         t_heuristic_cycles = 900;
         t_found_cycles = 850;
         t_improved = true;
         t_explored = 17;
         t_total = 23;
         t_complete = false;
         t_cached = false;
       });
  roundtrip P.R_shutdown;
  roundtrip (P.R_error { code = P.Timeout; message = "deadline of 1ms expired" });
  roundtrip
    (P.R_stats
       {
         s_uptime_s = 1.5;
         s_requests = [ ("advise", 2); ("stats", 1) ];
         s_errors = [ ("timeout", 1) ];
         s_result_hits = 1;
         s_result_misses = 2;
         s_ir_hits = 0;
         s_ir_misses = 2;
         s_disk_hits = 1;
         s_disk_misses = 1;
         s_cache_entries = 4;
         s_cache_bytes = 123456;
         s_cache_evictions = 0;
         s_inflight = 1;
         s_queued = 2;
         s_shedding = true;
         s_conns = 3;
         s_latency =
           {
             l_count = 3;
             l_p50_ms = 1.0;
             l_p95_ms = 20.0;
             l_p99_ms = 20.0;
             l_max_ms = 24.5;
           };
       })

let codec_ids () =
  (* inject/strip are textual inverses and agree with the codec *)
  let body =
    Json.to_string ~indent:false (P.json_of_request (advise "int main(){}"))
  in
  let tagged = P.inject_id ~id:42 body in
  Alcotest.(check string) "inject matches codec"
    (Json.to_string ~indent:false (P.json_of_request ~id:42 (advise "int main(){}")))
    tagged;
  (match P.strip_id tagged with
  | Some (id, rest) ->
    Alcotest.(check int) "strip recovers the id" 42 id;
    Alcotest.(check string) "strip recovers the body" body rest
  | None -> Alcotest.fail "strip_id missed a canonical id");
  Alcotest.(check bool) "no id strips to None" true (P.strip_id body = None);
  (match P.strip_id "{\"id\":7}" with
  | Some (7, "{}") -> ()
  | _ -> Alcotest.fail "id-only object");
  Alcotest.(check bool) "identity without id" true
    (String.equal (P.inject_id body) body);
  (* non-canonical spellings must fall back to the parser, not misread *)
  Alcotest.(check bool) "spaced id is non-canonical" true
    (P.strip_id "{ \"id\": 3, \"kind\":\"stats\"}" = None);
  (match
     P.scan_reply_header
       (P.inject_id ~id:9
          (Json.to_string ~indent:false
             (P.json_of_reply (P.R_advise { a_report = "r"; a_cached = true }))))
   with
  | Some 9, Ok () -> ()
  | _ -> Alcotest.fail "scan of a success reply");
  match
    P.scan_reply_header
      (Json.to_string ~indent:false
         (P.json_of_reply (P.R_error { code = P.Overloaded; message = "m" })))
  with
  | None, Error "overloaded" -> ()
  | _ -> Alcotest.fail "scan of an error reply"

(* ---------------- persistent cache ---------------- *)

module Diskcache = Slo_server.Diskcache

let with_diskcache k =
  let dir = Filename.temp_dir "slo-diskcache-unit" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k (Diskcache.create ~dir))

(* where a key's record lives: md5(key) under a two-hex-char fanout *)
let record_path d key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat (Diskcache.dir d) (String.sub h 0 2))
    (h ^ ".rec")

(* a record in the on-disk format, each header field overridable *)
let record ?(magic = "slo-diskcache 1") ?klen ?digest ?plen ~key payload =
  let len s = string_of_int (String.length s) in
  Printf.sprintf "%s\n%s\n%s\n%s\n%s\n%s" magic
    (Option.value ~default:(len key) klen) key
    (Option.value ~default:(Digest.to_hex (Digest.string payload)) digest)
    (Option.value ~default:(len payload) plen) payload

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let diskcache_roundtrip () =
  with_diskcache (fun d ->
      Alcotest.(check (option string)) "absent" None (Diskcache.find d ~key:"k");
      Diskcache.store d ~key:"k" "{\"ok\":true}";
      Alcotest.(check (option string)) "stored" (Some "{\"ok\":true}")
        (Diskcache.find d ~key:"k");
      (* a key past the old 1 000 000-byte cap: request bytes carry the
         source, bounded only by the frame limit *)
      let key = String.make 1_500_000 'k' in
      Diskcache.store d ~key "long";
      Alcotest.(check (option string)) "long key" (Some "long")
        (Diskcache.find d ~key))

(* every malformed record reads as a miss, and the file is dropped *)
let diskcache_rejects () =
  with_diskcache (fun d ->
      let key = "{\"kind\":\"advise\",\"src\":\"x\"}" and payload = "reply" in
      let good = record ~key payload in
      let rejects label contents =
        let path = record_path d key in
        Diskcache.store d ~key payload;
        write_file path contents;
        Alcotest.(check (option string)) label None (Diskcache.find d ~key);
        Alcotest.(check bool) (label ^ ": file removed") false
          (Sys.file_exists path)
      in
      rejects "another key under this file name" (record ~key:(key ^ " ") payload);
      rejects "truncated payload"
        (String.sub good 0 (String.length good - 2));
      rejects "payload digest mismatch"
        (record ~digest:(Digest.to_hex (Digest.string "other")) ~key payload);
      rejects "bad magic" (record ~magic:"slo-diskcache 0" ~key payload);
      rejects "negative key length" (record ~klen:"-1" ~key payload);
      rejects "over-cap key length"
        (record ~klen:(string_of_int (P.max_frame_bytes + 1)) ~key payload);
      rejects "negative payload length" (record ~plen:"-1" ~key payload);
      rejects "over-cap payload length"
        (record ~plen:(string_of_int (P.max_frame_bytes + 1)) ~key payload);
      (* the control: the same writer's well-formed record is a hit *)
      write_file (record_path d key) good;
      Alcotest.(check (option string)) "well-formed record" (Some payload)
        (Diskcache.find d ~key))

(* ---------------- end to end ---------------- *)

let e2e_advise_cached () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = hot_cold_src "adv" in
      (match Client.rpc conn (advise src) with
      | P.R_advise { a_report; a_cached } ->
        Alcotest.(check bool) "first advise is a miss" false a_cached;
        Alcotest.(check bool) "report mentions the struct" true
          (Astring.String.is_infix ~affix:"sadv" a_report)
      | r -> Alcotest.failf "advise failed: %s" (Json.to_string (P.json_of_reply r)));
      (match Client.rpc conn (advise src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "second advise is a hit" true a_cached
      | _ -> Alcotest.fail "second advise failed");
      (* same source, different scheme: a different cache key *)
      (match Client.rpc conn (advise ~scheme:"spbo" src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "scheme is part of the key" false a_cached
      | _ -> Alcotest.fail "spbo advise failed");
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check int) "result hits" 1 s.s_result_hits;
        Alcotest.(check int) "result misses" 2 s.s_result_misses;
        (* no compiled-program cache: each miss compiles, and the cache
           holds the two replies alone *)
        Alcotest.(check int) "ir hits" 0 s.s_ir_hits;
        Alcotest.(check int) "ir misses" 2 s.s_ir_misses;
        Alcotest.(check int) "entries are the replies" 2 s.s_cache_entries;
        Alcotest.(check bool) "advise counted" true
          (List.assoc_opt "advise" s.s_requests = Some 3);
        Alcotest.(check bool) "cache occupied" true (s.s_cache_bytes > 0)
      | _ -> Alcotest.fail "stats failed");
      close conn)

(* pool is part of the cache key and actually changes the decisions:
   the same ring advised with and without --pool yields two distinct
   cache entries, and only the pooled report mentions the pool plan *)
let e2e_advise_pool () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = ring_src "pl" in
      (match Client.rpc conn (advise src) with
      | P.R_advise { a_report; a_cached } ->
        Alcotest.(check bool) "plain advise is a miss" false a_cached;
        Alcotest.(check bool) "no pooling without the flag" false
          (Astring.String.is_infix ~affix:"Pooling" a_report)
      | r ->
        Alcotest.failf "plain advise failed: %s" (Json.to_string (P.json_of_reply r)));
      (match Client.rpc conn (advise ~pool:true src) with
      | P.R_advise { a_report; a_cached } ->
        Alcotest.(check bool) "pool is part of the cache key" false a_cached;
        Alcotest.(check bool) "pooled report proposes pooling" true
          (Astring.String.is_infix ~affix:"Transform: Pooling" a_report)
      | r ->
        Alcotest.failf "pool advise failed: %s" (Json.to_string (P.json_of_reply r)));
      (match Client.rpc conn (advise ~pool:true src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "pooled repeat is a hit" true a_cached
      | _ -> Alcotest.fail "pooled repeat failed");
      close conn)

let e2e_bench () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = hot_cold_src "bch" in
      (match Client.rpc conn (bench ~scheme:"spbo" src) with
      | P.R_bench b ->
        Alcotest.(check bool) "bench is a miss" false b.b_cached;
        Alcotest.(check bool) "cycles measured" true
          (b.b_cycles_before > 0 && b.b_cycles_after > 0)
      | r -> Alcotest.failf "bench failed: %s" (Json.to_string (P.json_of_reply r)));
      (match Client.rpc conn (bench ~scheme:"spbo" src) with
      | P.R_bench b -> Alcotest.(check bool) "bench repeat is a hit" true b.b_cached
      | _ -> Alcotest.fail "bench repeat failed");
      close conn)

(* [pool] reaches the daemon's bench: the ring measured with pooling
   runs a pool plan, and the request is its own cache entry *)
let e2e_bench_pool () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = ring_src "bp" in
      let plans pool =
        match Client.rpc conn (bench ~pool src) with
        | P.R_bench b ->
          Alcotest.(check bool)
            (Printf.sprintf "pool=%b bench is a miss" pool)
            false b.b_cached;
          b.b_plans
        | r -> Alcotest.failf "bench failed: %s" (Json.to_string (P.json_of_reply r))
      in
      let is_pool p = Astring.String.is_prefix ~affix:"pool " p in
      Alcotest.(check bool) "no pool plan without the flag" false
        (List.exists is_pool (plans false));
      Alcotest.(check bool) "pooled bench plans a pool" true
        (List.exists is_pool (plans true));
      close conn)

(* replies are the only cache entries: a run of distinct cold sources
   whose compiled programs alone would overflow a 1 MiB cache leaves the
   first reply in place, with nothing evicted *)
let e2e_cold_sources_keep_replies () =
  with_server ~cache_mb:1 (fun ~connect ~close _socket ->
      let conn = connect () in
      let e = Slo_suite.Suite.find "179.art" in
      let src i = Printf.sprintf "%s\n/* cold %d */\n" e.source i in
      let cold = 24 in
      for i = 0 to cold - 1 do
        match Client.rpc conn (advise (src i)) with
        | P.R_advise { a_cached; _ } ->
          Alcotest.(check bool) (Printf.sprintf "cold %d is a miss" i) false
            a_cached
        | r -> Alcotest.failf "advise failed: %s" (Json.to_string (P.json_of_reply r))
      done;
      (match Client.rpc conn (advise (src 0)) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "the first reply is still cached" true a_cached
      | _ -> Alcotest.fail "repeat advise failed");
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check int) "nothing evicted" 0 s.s_cache_evictions;
        Alcotest.(check int) "one entry per reply" cold s.s_cache_entries
      | _ -> Alcotest.fail "stats failed");
      close conn)

(* a "backend" field, which older clients send on bench and tune, is
   ignored like any unknown field: a frame carrying it, in a real
   engine's spelling or a bogus one, gets the field-less frame's reply
   bytes from the same cache entry, with no second computation *)
let e2e_backend_field_ignored () =
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = hot_cold_src "engine" in
      let call = call_raw conn in
      (* the request's frame with [extra] fields appended *)
      let frame extra req =
        match P.json_of_request req with
        | Json.Obj fields ->
          Json.to_string ~indent:false (Json.Obj (fields @ extra))
        | _ -> assert false
      in
      let tune =
        P.Tune { src; scheme = Some "spbo"; args = []; beam = None;
                 deadline_ms = Some 0.001 }
      in
      List.iter
        (fun (kind, req) ->
          let first = call (frame [] req) in
          Alcotest.(check bool) (kind ^ " is computed") true
            (Astring.String.is_infix ~affix:"\"ok\":true" first
            && Astring.String.is_infix ~affix:"\"cached\":false" first);
          List.iter
            (fun engine ->
              Alcotest.(check string)
                (Printf.sprintf "%s with backend %S" kind engine)
                (cached_as first)
                (call (frame [ ("backend", Json.String engine) ] req)))
            [ "walk"; "no-such-engine" ])
        [ ("bench", bench ~scheme:"spbo" src); ("tune", tune) ];
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check (pair int int)) "result hits, misses" (4, 2)
          (s.s_result_hits, s.s_result_misses);
        Alcotest.(check int) "one compile per kind" 2 s.s_ir_misses
      | _ -> Alcotest.fail "stats failed");
      close conn)

let e2e_check () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let src =
        "struct s { long a; long b; };\n\
         struct s *p; long sink;\n\
         int main() { long *raw;\n\
         p = (struct s*)malloc(4 * sizeof(struct s));\n\
         p->a = 1; p->b = 2;\n\
         raw = (long*)p;\n\
         sink = raw[1];\n\
         return (int)(p->a + sink); }"
      in
      (match
         Client.rpc conn (P.Check { src; relax = false; deadline_ms = None })
       with
      | P.R_check c ->
        Alcotest.(check bool) "first check is a miss" false c.c_cached;
        Alcotest.(check bool) "report carries a located CSTF" true
          (Astring.String.is_infix ~affix:":6:" c.c_report
          && Astring.String.is_infix ~affix:"CSTF" c.c_report);
        Alcotest.(check bool) "sarif is 2.1.0" true
          (Astring.String.is_infix ~affix:"\"2.1.0\"" c.c_sarif);
        Alcotest.(check int) "the cast invalidates" 1 c.c_invalidating
      | r -> Alcotest.failf "check failed: %s" (Json.to_string (P.json_of_reply r)));
      (match
         Client.rpc conn (P.Check { src; relax = false; deadline_ms = None })
       with
      | P.R_check c ->
        Alcotest.(check bool) "repeat check is a hit" true c.c_cached
      | _ -> Alcotest.fail "check repeat failed");
      (* relax is part of the cache key and flips the verdict to the
         points-to collapse *)
      (match
         Client.rpc conn (P.Check { src; relax = true; deadline_ms = None })
       with
      | P.R_check c ->
        Alcotest.(check bool) "relax is a different key" false c.c_cached;
        Alcotest.(check bool) "PTS finding surfaces" true
          (Astring.String.is_infix ~affix:"PTS" c.c_report);
        Alcotest.(check int) "points-to collapse invalidates" 1
          c.c_invalidating
      | _ -> Alcotest.fail "relaxed check failed");
      close conn)

let e2e_tune () =
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = hot_cold_src "tun" in
      let tune ?beam ?deadline_ms () =
        P.Tune { src; scheme = Some "ispbo"; args = []; beam; deadline_ms }
      in
      (* a budget far too tight for any candidate: anytime semantics
         mean the best-so-far (the heuristic incumbent) comes back as a
         success reply, never a [timeout] error *)
      let tight_found_cycles =
        match Client.rpc conn (tune ~deadline_ms:0.001 ()) with
        | P.R_tune t ->
          Alcotest.(check bool) "tight budget: incomplete" false t.t_complete;
          Alcotest.(check bool) "tight budget: not cached" false t.t_cached;
          Alcotest.(check bool) "tight budget: never worse" true
            (t.t_found_cycles <= t.t_heuristic_cycles);
          Alcotest.(check bool) "tight budget: falls back to heuristic" true
            (t.t_plans = t.t_heuristic_plans);
          t.t_found_cycles
        | r ->
          Alcotest.failf "tight tune failed: %s"
            (Json.to_string (P.json_of_reply r))
      in
      (* no budget: the whole space is scored, and a longer budget can
         only match or improve on the tight run's best *)
      (match Client.rpc conn (tune ()) with
      | P.R_tune t ->
        Alcotest.(check bool) "full search completes" true t.t_complete;
        Alcotest.(check int) "explored everything" t.t_total t.t_explored;
        Alcotest.(check bool) "longer budget at least as good" true
          (t.t_found_cycles <= tight_found_cycles);
        Alcotest.(check bool) "plans are codec-parseable" true
          (List.for_all
             (fun p -> Result.is_ok (Slo_core.Codec.plan_of_string p))
             (t.t_plans @ t.t_heuristic_plans))
      | r ->
        Alcotest.failf "full tune failed: %s"
          (Json.to_string (P.json_of_reply r)));
      (* budget is part of the result identity: a repeat of the same
         request hits the cache, a different budget does not *)
      (match Client.rpc conn (tune ()) with
      | P.R_tune t -> Alcotest.(check bool) "repeat is a hit" true t.t_cached
      | _ -> Alcotest.fail "tune repeat failed");
      (match Client.rpc conn (tune ~beam:2 ()) with
      | P.R_tune t ->
        Alcotest.(check bool) "beam is part of the key" false t.t_cached
      | _ -> Alcotest.fail "beam tune failed");
      close conn)

let e2e_structured_errors () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      expect_error "parse" P.Parse_error
        (Client.rpc conn (advise "struct s {"));
      expect_error "type" P.Type_error
        (Client.rpc conn (advise "int main() { return undefined_var; }"));
      expect_error "unknown scheme" P.Bad_request
        (Client.rpc conn (advise ~scheme:"nope" "int main() { return 0; }"));
      (* the connection survives every one of those *)
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check bool) "parse_error counted" true
          (List.assoc_opt "parse_error" s.s_errors = Some 1);
        Alcotest.(check bool) "type_error counted" true
          (List.assoc_opt "type_error" s.s_errors = Some 1);
        Alcotest.(check bool) "bad_request counted" true
          (List.assoc_opt "bad_request" s.s_errors = Some 1)
      | _ -> Alcotest.fail "stats failed");
      close conn)

(* the daemon runs the library's pipeline: on roster programs at tiny
   args, its advise report is the shared advise stage's, its bench
   numbers are Driver.evaluate's, and its error text is the shared
   renderer's without a file name *)
let e2e_daemon_is_library () =
  let module D = Slo_core.Driver in
  let module Suite = Slo_suite.Suite in
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      List.iter
        (fun name ->
          let e = Suite.find name in
          let args = List.map (fun a -> max 1 (a / 8)) e.train_args in
          let prog = D.compile ~verify:true e.source in
          List.iter
            (fun scheme_name ->
              let scheme =
                Result.get_ok (Slo_core.Codec.scheme_of_string scheme_name)
              in
              let feedback = D.feedback_for ~args prog ~scheme in
              let label what = Printf.sprintf "%s %s %s" name scheme_name what in
              List.iter
                (fun pool ->
                  let expected =
                    Slo_core.Advisor.report
                      (D.advise ~pool prog ~scheme ~feedback)
                  in
                  match
                    Client.rpc conn
                      (P.Advise
                         { src = e.source; scheme = Some scheme_name; args;
                           pool; deadline_ms = None })
                  with
                  | P.R_advise a ->
                    Alcotest.(check string)
                      (label (Printf.sprintf "advise pool=%b" pool))
                      expected a.a_report
                  | r -> Alcotest.failf "%s: %s" (label "advise") (wire r))
                [ false; true ];
              let ev =
                D.evaluate ~args ~verify:true ~scheme ~feedback prog
              in
              let expected =
                P.R_bench
                  {
                    b_cycles_before = ev.e_before.m_cycles;
                    b_cycles_after = ev.e_after.m_cycles;
                    b_speedup_pct = ev.e_speedup_pct;
                    b_plans =
                      List.map Slo_core.Heuristics.plan_summary
                        (Slo_core.Heuristics.plans ev.e_decisions);
                    b_cached = false;
                  }
              in
              Alcotest.(check string) (label "bench") (wire expected)
                (wire
                   (Client.rpc conn
                      (P.Bench
                         { src = e.source; scheme = Some scheme_name; args;
                           pool = false; deadline_ms = None }))))
            [ "ispbo"; "spbo"; "pbo" ])
        [ "179.art"; "gobmk"; "sphinx" ];
      List.iter
        (fun src ->
          let expected =
            match D.guard (fun () -> D.compile ~verify:true src) with
            | Error e -> D.render_error e
            | Ok _ -> Alcotest.failf "%S compiled" src
          in
          match Client.rpc conn (advise src) with
          | P.R_error { message; _ } ->
            Alcotest.(check string) "error text is the renderer's" expected
              message
          | r -> Alcotest.failf "%S: %s" src (wire r))
        [ "int main() { int x = 1 $ 2; return 0; }"; "int main( { return 0; }";
          "int main() { return undefined_var; }" ];
      close conn)

let e2e_deadline () =
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      expect_error "deadline" P.Timeout
        (Client.rpc conn (bench ~deadline_ms:1.0 (slow_src "dl")));
      (* the daemon still serves other requests while the timed-out job
         keeps a worker busy *)
      (match Client.rpc conn (advise (hot_cold_src "dl2")) with
      | P.R_advise _ -> ()
      | _ -> Alcotest.fail "request after timeout failed");
      close conn)

(* poll [stats] until the number of pending computations satisfies [ok] *)
let await_queued conn ok =
  let rec go attempts =
    if attempts = 0 then Alcotest.fail "pending computations never settled";
    if not (ok (stats conn).s_queued) then begin
      Unix.sleepf 0.005;
      go (attempts - 1)
    end
  in
  go 2000

(* two identical cold requests pipelined on one connection: the second
   arrives while the first computes, joins it, and both get the one
   computation's reply *)
let e2e_coalescing () =
  with_server ~jobs:1 (fun ~connect ~close _socket ->
      let conn = connect () in
      let req = bench ~scheme:"spbo" (slow_src "coal") in
      Client.send conn ~id:1 req;
      Client.send conn ~id:2 req;
      let r1 = Client.recv conn and r2 = Client.recv conn in
      (match List.sort compare [ r1; r2 ] with
      | [ (Some 1, (P.R_bench { b_cached = false; _ } as a)); (Some 2, b) ] ->
        Alcotest.(check string) "one reply, two ids" (wire a) (wire b)
      | _ ->
        Alcotest.failf "replies: %s / %s" (wire (snd r1)) (wire (snd r2)));
      let s = stats conn in
      Alcotest.(check (pair int int)) "one compile, two misses" (1, 2)
        (s.s_ir_misses, s.s_result_misses);
      close conn)

(* a deadline answers the request once, with [timeout], and the job runs
   on: its reply is cached for the next request *)
let e2e_deadline_result_cached () =
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = slow_src "dlc" in
      Client.send conn ~id:1 (bench ~deadline_ms:1.0 src);
      (match Client.recv conn with
      | Some 1, r -> expect_error "deadline" P.Timeout r
      | _ -> Alcotest.fail "no timeout for request 1");
      await_queued conn (( = ) 0);
      (* the next frame answers the next request: no second reply for
         the timed-out one *)
      Client.send conn ~id:2 (bench src);
      (match Client.recv conn with
      | Some 2, P.R_bench { b_cached; _ } ->
        Alcotest.(check bool) "served from the cache" true b_cached
      | id, r ->
        Alcotest.failf "frame after the timeout: %s %s"
          (Option.fold ~none:"-" ~some:string_of_int id) (wire r));
      let s = stats conn in
      Alcotest.(check (pair int int)) "one compile, none queued" (1, 0)
        (s.s_ir_misses, s.s_queued);
      close conn)

(* a reply that beats its deadline is the request's only answer: once
   the deadline has passed, the next frame is the next request's *)
let e2e_deadline_answered_once () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      Client.send conn ~id:1
        (P.Check
           { src = hot_cold_src "once"; relax = false;
             deadline_ms = Some 250.0 });
      (match Client.recv conn with
      | Some 1, P.R_check _ -> ()
      | _, r -> Alcotest.failf "check: %s" (wire r));
      Unix.sleepf 0.4;
      Client.send conn ~id:2 P.Stats;
      (match Client.recv conn with
      | Some 2, P.R_stats _ -> ()
      | id, r ->
        Alcotest.failf "frame after the deadline: %s %s"
          (Option.fold ~none:"-" ~some:string_of_int id) (wire r));
      close conn)

(* a deadline that falls while the daemon drains still fires *)
let e2e_deadline_during_drain () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () and ctl = connect () in
      Client.send conn ~id:1 (bench ~deadline_ms:50.0 (slow_src "dd"));
      await_queued ctl (fun n -> n > 0);
      (match Client.rpc ctl P.Shutdown with
      | P.R_shutdown -> ()
      | r -> Alcotest.failf "shutdown: %s" (wire r));
      (match Client.recv conn with
      | Some 1, r -> expect_error "deadline during drain" P.Timeout r
      | _ -> Alcotest.fail "no reply for the bench");
      close ctl;
      close conn)

let e2e_overloaded () =
  with_server ~max_conns:2 (fun ~connect ~close _socket ->
      let c1 = connect () in
      let c2 = connect () in
      (* a round-trip on both guarantees the server has registered them
         before the third connect races the accept loop. The count is
         read from the second reply: c2 may still wait in the backlog
         while c1's reply is computed *)
      let r1 = Client.rpc c1 P.Stats in
      let r2 = Client.rpc c2 P.Stats in
      (match (r1, r2) with
      | P.R_stats _, P.R_stats s ->
        Alcotest.(check int) "two connections open" 2 s.P.s_conns
      | _ -> Alcotest.fail "stats failed");
      let c3 = connect () in
      (match Client.rpc c3 P.Stats with
      | reply -> expect_error "third connection" P.Overloaded reply
      | exception Client.Protocol_error _ ->
        (* the refusal frame may already be followed by a close; a torn
           read is acceptable, a served request is not *)
        ());
      close c3;
      (* closing one admitted connection frees a slot — once the server
         notices the EOF and deregisters it, which is asynchronous *)
      close c1;
      let rec await_slot attempts =
        if attempts = 0 then Alcotest.fail "closed connection never freed";
        match Client.rpc c2 P.Stats with
        | P.R_stats s when s.P.s_conns <= 1 -> ()
        | P.R_stats _ ->
          Unix.sleepf 0.02;
          await_slot (attempts - 1)
        | _ -> Alcotest.fail "stats failed"
      in
      await_slot 250;
      let c4 = connect () in
      (match Client.rpc c4 P.Stats with
      | P.R_stats _ -> ()
      | reply ->
        Alcotest.failf "slot not freed: %s" (Json.to_string (P.json_of_reply reply)));
      close c4;
      close c2)

let e2e_shutdown_drains () =
  let socket_path = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path) with jobs = 1; handle_sigterm = false }
  in
  let th = Thread.create Server.run cfg in
  let conn = Client.connect_socket ~retry_for_s:10.0 ~socket:socket_path () in
  (match Client.rpc conn (advise (hot_cold_src "sd")) with
  | P.R_advise _ -> ()
  | _ -> Alcotest.fail "advise before shutdown failed");
  (match Client.rpc conn P.Shutdown with
  | P.R_shutdown -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Thread.join th;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path);
  (* new connections are refused once drained *)
  (match Client.connect_socket ~retry_for_s:0.0 ~socket:socket_path () with
  | conn2 -> Client.close conn2; Alcotest.fail "connect after drain succeeded"
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) -> ());
  Client.close conn

let e2e_sigterm_drains () =
  (* handle_sigterm = true: the daemon installs its drain handler, and a
     SIGTERM mid-request must not kill the in-flight reply *)
  let socket_path = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path) with jobs = 1; handle_sigterm = true }
  in
  let th = Thread.create Server.run cfg in
  let conn = Client.connect_socket ~retry_for_s:10.0 ~socket:socket_path () in
  let reply = ref None in
  let client =
    Thread.create
      (fun () -> reply := Some (Client.rpc conn (advise (hot_cold_src "st"))))
      ()
  in
  Unix.sleepf 0.05;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join client;
  Thread.join th;
  (match !reply with
  | Some (P.R_advise _) -> ()
  | Some r ->
    Alcotest.failf "in-flight request killed by SIGTERM: %s"
      (Json.to_string (P.json_of_reply r))
  | None -> Alcotest.fail "no reply recorded");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path);
  Client.close conn

(* a loopback port that is free right now; the bind-close-reuse window
   is ours alone in a test process *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let e2e_tcp_transport () =
  let port = free_port () in
  with_server ~listen:("127.0.0.1", port) (fun ~connect ~close _socket ->
      let tcp =
        Client.connect ~retry_for_s:10.0 ~endpoint:(`Tcp ("127.0.0.1", port)) ()
      in
      let src = hot_cold_src "tcp" in
      (match Client.rpc tcp (advise src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "miss over TCP" false a_cached
      | r ->
        Alcotest.failf "TCP advise failed: %s" (Json.to_string (P.json_of_reply r)));
      (* both transports front one cache *)
      let unix_conn = connect () in
      (match Client.rpc unix_conn (advise src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "hit via the Unix socket" true a_cached
      | _ -> Alcotest.fail "unix advise failed");
      close unix_conn;
      Client.close tcp)

let e2e_pipelining_out_of_order () =
  (* one worker: a slow bench miss occupies it while a cached advise,
     sent later on the same connection, overtakes it *)
  with_server ~jobs:1 (fun ~connect ~close _socket ->
      let conn = connect () in
      let adv = advise (hot_cold_src "pipe") in
      (match Client.rpc conn adv with
      | P.R_advise _ -> ()
      | _ -> Alcotest.fail "advise warmup failed");
      Client.send conn ~id:1 (bench ~scheme:"spbo" (slow_src "pipe"));
      Client.send conn ~id:2 adv;
      Client.send conn ~id:3 adv;
      let id1, r1 = Client.recv conn in
      let id2, r2 = Client.recv conn in
      let id3, r3 = Client.recv conn in
      Alcotest.(check (list (option int)))
        "cached advises overtake the bench"
        [ Some 2; Some 3; Some 1 ] [ id1; id2; id3 ];
      (match (r1, r2) with
      | P.R_advise { a_cached = true; _ }, P.R_advise { a_cached = true; _ } -> ()
      | _ -> Alcotest.fail "overtaking replies were not the cached advises");
      (match r3 with
      | P.R_bench _ -> ()
      | r ->
        Alcotest.failf "bench reply: %s" (Json.to_string (P.json_of_reply r)));
      close conn)

(* A request's cache identity: one entry serves every spelling of the
   same request — scheme omitted or in any case, a deadline (a bound on
   the wait, not part of the answer), a frame whose id is not the first
   field or that carries extra whitespace — while a change to any field
   that shapes the answer misses. Every cached reply is the first
   reply's bytes but for "cached". *)
let e2e_request_identity () =
  with_server ~jobs:2 (fun ~connect ~close _socket ->
      let conn = connect () in
      let src = hot_cold_src "ident" in
      let hits = ref 0 and misses = ref 0 in
      let counts label =
        match Client.rpc conn P.Stats with
        | P.R_stats s ->
          Alcotest.(check (pair int int))
            (label ^ ": result hits, misses") (!hits, !misses)
            (s.s_result_hits, s.s_result_misses)
        | _ -> Alcotest.fail "stats failed"
      in
      let call = call_raw conn in
      let frame req = Json.to_string ~indent:false (P.json_of_request req) in
      let miss label req =
        let reply = call (frame req) in
        incr misses;
        counts label;
        Alcotest.(check bool) (label ^ " is computed") true
          (Astring.String.is_infix ~affix:"\"ok\":true" reply
          && Astring.String.is_infix ~affix:"\"cached\":false" reply);
        reply
      in
      let hit label first payload =
        let reply = call payload in
        incr hits;
        counts label;
        Alcotest.(check string) (label ^ " bytes") (cached_as first) reply
      in
      let tune ?beam budget =
        P.Tune { src; scheme = None; args = []; beam;
                 deadline_ms = Some budget }
      in
      let first = miss "scheme omitted" (advise src) in
      hit "ispbo" first (frame (advise ~scheme:"ispbo" src));
      hit "ISPBO" first (frame (advise ~scheme:"ISPBO" src));
      hit "with a deadline" first (frame (advise ~deadline_ms:60000.0 src));
      hit "id not first, extra whitespace" first
        (Printf.sprintf "{ \"kind\" : \"advise\" ,\n  \"id\" : 7 , \"src\" : %s }"
           (Json.to_string (Json.String src)));
      ignore (miss "scheme" (advise ~scheme:"spbo" src));
      ignore (miss "pool" (advise ~pool:true src));
      ignore
        (miss "args"
           (P.Advise { src; scheme = None; args = [ 3 ]; pool = false;
                       deadline_ms = None }));
      ignore (miss "bench" (bench src));
      ignore (miss "bench pool" (bench ~pool:true src));
      ignore (miss "check" (P.Check { src; relax = false; deadline_ms = None }));
      ignore (miss "relax" (P.Check { src; relax = true; deadline_ms = None }));
      let tn = miss "tune" (tune 0.001) in
      hit "tune repeat" tn (frame (tune 0.001));
      ignore (miss "tune budget" (tune 0.002));
      ignore (miss "beam" (tune ~beam:2 0.001));
      close conn)

let e2e_disk_cache_warm_restart () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "slo-diskcache-%d" (Unix.getpid ()))
  in
  let src = hot_cold_src "disk" in
  with_server ~cache_dir:dir (fun ~connect ~close _socket ->
      let conn = connect () in
      (match Client.rpc conn (advise src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "cold daemon misses" false a_cached
      | r ->
        Alcotest.failf "advise failed: %s" (Json.to_string (P.json_of_reply r)));
      close conn);
  (* a fresh daemon on the same directory: first repeat must be served
     from the persistent layer, not recomputed *)
  with_server ~cache_dir:dir (fun ~connect ~close _socket ->
      let conn = connect () in
      (match Client.rpc conn (advise src) with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "restarted daemon serves from disk" true a_cached
      | r ->
        Alcotest.failf "advise failed: %s" (Json.to_string (P.json_of_reply r)));
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check int) "one disk hit" 1 s.s_disk_hits;
        Alcotest.(check int) "no recompute" 1 s.s_result_misses
      | _ -> Alcotest.fail "stats failed");
      close conn);
  (* best-effort cleanup; verify-on-load makes leftovers harmless *)
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* a disk record is untrusted input: a daemon serves the codec's bytes
   for the reply a record parses to, never the file's own. A record
   with leading whitespace and "cached":false still parses; served
   as it is, it would break an id'd reply's frame. *)
let e2e_disk_record_reserialized () =
  let dir = Filename.temp_dir "slo-diskcache-record" "" in
  let src = hot_cold_src "record" in
  let key = Json.to_string ~indent:false (P.json_of_request (advise src)) in
  Diskcache.store (Diskcache.create ~dir) ~key
    (" "
    ^ Json.to_string ~indent:false
        (P.json_of_reply (P.R_advise { a_report = "from disk"; a_cached = false })));
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      with_server ~cache_dir:dir (fun ~connect ~close _socket ->
          let conn = connect () in
          (* the disk hit, then the memory hit it left behind *)
          List.iter
            (fun (id, label) ->
              Client.send conn ~id (advise src);
              match Client.recv conn with
              | Some id', P.R_advise { a_report = "from disk"; a_cached = true }
                when id' = id ->
                ()
              | _, r ->
                Alcotest.failf "%s: %s" label
                  (Json.to_string (P.json_of_reply r)))
            [ (1, "disk hit"); (2, "memory hit") ];
          (match Client.rpc conn P.Stats with
          | P.R_stats s ->
            Alcotest.(check (pair int int)) "disk hits, result misses" (1, 1)
              (s.s_disk_hits, s.s_result_misses)
          | _ -> Alcotest.fail "stats failed");
          close conn))

(* the cache key is bounded like a frame: a source whose escaped form
   outgrows the frame limit (each raw control byte escapes to six key
   bytes) gets a clean bad_request, and nothing is cached *)
let e2e_key_bounded () =
  with_server (fun ~connect ~close _socket ->
      let conn = connect () in
      let n = (P.max_frame_bytes / 6) + 1 in
      Client.send_raw conn
        (Printf.sprintf "{\"kind\":\"check\",\"src\":\"%s\"}"
           (String.make n '\001'));
      (match P.reply_of_json (Json.of_string (Client.recv_raw conn)) with
      | Ok r -> expect_error "oversized normal form" P.Bad_request r
      | Error msg -> Alcotest.failf "undecodable reply: %s" msg);
      (match Client.rpc conn P.Stats with
      | P.R_stats s ->
        Alcotest.(check (pair int int)) "nothing cached, no compute" (0, 0)
          (s.s_cache_entries, s.s_result_misses)
      | _ -> Alcotest.fail "stats failed");
      close conn)

let e2e_overload_sheds_bench () =
  (* watermarks 1/0 with one worker: a single queued job flips the
     daemon into shedding; bench misses get structured overloaded
     replies while cached advise keeps being served *)
  with_server ~jobs:1 ~high_watermark:1 (fun ~connect ~close _socket ->
      let conn = connect () in
      let adv = advise (hot_cold_src "shed") in
      (match Client.rpc conn adv with
      | P.R_advise _ -> ()
      | _ -> Alcotest.fail "advise warmup failed");
      Client.send conn ~id:1 (bench ~scheme:"spbo" (slow_src "shed"));
      (* wait until the job is queued (= shedding is on) before probing *)
      let probe = connect () in
      let rec await_queued attempts =
        if attempts = 0 then Alcotest.fail "bench was never queued";
        match Client.rpc probe P.Stats with
        | P.R_stats s when s.s_shedding -> ()
        | P.R_stats _ ->
          Unix.sleepf 0.01;
          await_queued (attempts - 1)
        | _ -> Alcotest.fail "stats failed"
      in
      await_queued 500;
      expect_error "bench miss under overload" P.Overloaded
        (Client.rpc probe (bench ~scheme:"spbo" (hot_cold_src "shed2")));
      (match Client.rpc probe adv with
      | P.R_advise { a_cached; _ } ->
        Alcotest.(check bool) "cached advise still served" true a_cached
      | _ -> Alcotest.fail "cached advise was shed");
      (* the backlog drains: the slow bench completes and shedding ends *)
      (match Client.recv conn with
      | Some 1, P.R_bench _ -> ()
      | _ -> Alcotest.fail "queued bench did not complete");
      let rec await_admitting attempts =
        if attempts = 0 then Alcotest.fail "shedding never ended";
        match Client.rpc probe P.Stats with
        | P.R_stats s when not s.s_shedding -> ()
        | P.R_stats _ ->
          Unix.sleepf 0.01;
          await_admitting (attempts - 1)
        | _ -> Alcotest.fail "stats failed"
      in
      await_admitting 500;
      (match Client.rpc probe (bench ~scheme:"spbo" (hot_cold_src "shed2")) with
      | P.R_bench _ -> ()
      | r ->
        Alcotest.failf "bench after drain: %s" (Json.to_string (P.json_of_reply r)));
      close probe;
      close conn)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing roundtrip" `Quick framing_roundtrip;
          Alcotest.test_case "framing errors" `Quick framing_errors;
          Alcotest.test_case "error codes" `Quick codec_error_codes;
          Alcotest.test_case "request codec" `Quick codec_requests;
          Alcotest.test_case "reply codec" `Quick codec_replies;
          Alcotest.test_case "id plumbing" `Quick codec_ids;
        ] );
      ( "diskcache",
        [
          Alcotest.test_case "round trip" `Quick diskcache_roundtrip;
          Alcotest.test_case "rejects malformed records" `Quick
            diskcache_rejects;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "advise + cache" `Quick e2e_advise_cached;
          Alcotest.test_case "advise with pooling" `Quick e2e_advise_pool;
          Alcotest.test_case "bench + cache" `Quick e2e_bench;
          Alcotest.test_case "bench with pooling" `Quick e2e_bench_pool;
          Alcotest.test_case "cold sources do not evict replies" `Quick
            e2e_cold_sources_keep_replies;
          Alcotest.test_case "backend field ignored" `Quick
            e2e_backend_field_ignored;
          Alcotest.test_case "check + cache" `Quick e2e_check;
          Alcotest.test_case "tune anytime + cache" `Quick e2e_tune;
          Alcotest.test_case "structured errors" `Quick e2e_structured_errors;
          Alcotest.test_case "daemon is the library" `Quick
            e2e_daemon_is_library;
          Alcotest.test_case "deadline" `Quick e2e_deadline;
          Alcotest.test_case "coalescing" `Quick e2e_coalescing;
          Alcotest.test_case "deadline result cached" `Quick
            e2e_deadline_result_cached;
          Alcotest.test_case "deadline answered once" `Quick
            e2e_deadline_answered_once;
          Alcotest.test_case "deadline fires during drain" `Quick
            e2e_deadline_during_drain;
          Alcotest.test_case "connection limit" `Quick e2e_overloaded;
          Alcotest.test_case "shutdown drains" `Quick e2e_shutdown_drains;
          Alcotest.test_case "sigterm drains" `Quick e2e_sigterm_drains;
          Alcotest.test_case "tcp transport" `Quick e2e_tcp_transport;
          Alcotest.test_case "pipelining out of order" `Quick
            e2e_pipelining_out_of_order;
          Alcotest.test_case "request identity" `Quick e2e_request_identity;
          Alcotest.test_case "disk cache warm restart" `Quick
            e2e_disk_cache_warm_restart;
          Alcotest.test_case "disk record re-serialized" `Quick
            e2e_disk_record_reserialized;
          Alcotest.test_case "cache key bounded" `Quick e2e_key_bounded;
          Alcotest.test_case "overload sheds bench" `Quick
            e2e_overload_sheds_bench;
        ] );
    ]
