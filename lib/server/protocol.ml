module Json = Slo_util.Json

type error_code =
  | Bad_request
  | Parse_error
  | Type_error
  | Legality_error
  | Worker_crash
  | Timeout
  | Overloaded
  | Shutting_down

let error_codes =
  [
    (Bad_request, "bad_request");
    (Parse_error, "parse_error");
    (Type_error, "type_error");
    (Legality_error, "legality_error");
    (Worker_crash, "worker_crash");
    (Timeout, "timeout");
    (Overloaded, "overloaded");
    (Shutting_down, "shutting_down");
  ]

let error_code_name c = List.assoc c error_codes

let error_code_of_name s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) error_codes

type request =
  | Advise of {
      src : string;
      scheme : string option;
      args : int list;
      pool : bool;
      deadline_ms : float option;
    }
  | Bench of {
      src : string;
      scheme : string option;
      args : int list;
      pool : bool;
      deadline_ms : float option;
    }
  | Check of { src : string; relax : bool; deadline_ms : float option }
  | Tune of {
      src : string;
      scheme : string option;
      args : int list;
      beam : int option;
      deadline_ms : float option;
    }
  | Stats
  | Shutdown

type latency = {
  l_count : int;
  l_p50_ms : float;
  l_p95_ms : float;
  l_p99_ms : float;
  l_max_ms : float;
}

type stats_reply = {
  s_uptime_s : float;
  s_requests : (string * int) list;
  s_errors : (string * int) list;
  s_result_hits : int;
  s_result_misses : int;
  s_ir_hits : int;
  s_ir_misses : int;
  s_disk_hits : int;
  s_disk_misses : int;
  s_cache_entries : int;
  s_cache_bytes : int;
  s_cache_evictions : int;
  s_inflight : int;
  s_queued : int;
  s_shedding : bool;
  s_conns : int;
  s_latency : latency;
}

type reply =
  | R_advise of { a_report : string; a_cached : bool }
  | R_bench of {
      b_cycles_before : int;
      b_cycles_after : int;
      b_speedup_pct : float;
      b_plans : string list;
      b_cached : bool;
    }
  | R_check of {
      c_report : string;       (** rendered caret diagnostics *)
      c_sarif : string;        (** SARIF 2.1.0 document *)
      c_invalidating : int;    (** findings that block transformation *)
      c_cached : bool;
    }
  | R_tune of {
      t_plans : string list;           (** the winner, codec plan strings *)
      t_heuristic_plans : string list; (** the incumbent it was judged against *)
      t_baseline_cycles : int;
      t_heuristic_cycles : int;
      t_found_cycles : int;
      t_improved : bool;
      t_explored : int;
      t_total : int;
      t_complete : bool;
      t_cached : bool;
    }
  | R_stats of stats_reply
  | R_shutdown
  | R_error of { code : error_code; message : string }

(* ---------------- request ids (pipelining) ---------------- *)

(* A client that pipelines tags each request with an integer [id]; the
   server echoes it on the matching reply, which may complete out of
   order. The id is a top-level "id" field in both directions, always
   emitted *first* so that hot paths can splice or scan it without a
   full JSON parse. *)

let id_of_frame j =
  match Json.member "id" j with Some (Json.Int n) -> Some n | _ -> None

(* [inject_id ~id payload] prepends an "id" field to a serialized JSON
   object. The warm serving path caches serialized replies and the load
   generator caches serialized requests; both splice the per-call id
   into the cached bytes instead of re-emitting the document. *)
let inject_id ?id payload =
  match id with
  | None -> payload
  | Some n ->
    let len = String.length payload in
    if len < 2 || payload.[0] <> '{' then
      invalid_arg "Protocol.inject_id: payload is not a JSON object";
    (* exact-size blit, not Printf — this runs per call on serving and
       load-generation hot paths *)
    let ns = string_of_int n in
    let nlen = String.length ns in
    let empty = len = 2 && payload.[1] = '}' in
    let out =
      Bytes.create (6 + nlen + (if empty then 1 else 1 + (len - 1)))
    in
    Bytes.blit_string "{\"id\":" 0 out 0 6;
    Bytes.blit_string ns 0 out 6 nlen;
    if empty then Bytes.set out (6 + nlen) '}'
    else begin
      Bytes.set out (6 + nlen) ',';
      Bytes.blit_string payload 1 out (7 + nlen) (len - 1)
    end;
    Bytes.unsafe_to_string out

(* [strip_id payload] undoes [inject_id] textually: [Some (id, rest)]
   when the payload starts with a canonical {"id":N...} prefix (where
   [rest] is the object with the id field removed), [None] otherwise.
   Purely syntactic — used to key the frame cache on the id-independent
   request bytes without parsing the document. *)
let strip_id payload =
  let prefix = "{\"id\":" in
  let plen = String.length prefix and len = String.length payload in
  if len < String.length prefix + 1 || String.sub payload 0 plen <> prefix
  then None
  else begin
    let i = ref plen in
    let neg = !i < len && payload.[!i] = '-' in
    if neg then incr i;
    let digits0 = !i in
    while !i < len && payload.[!i] >= '0' && payload.[!i] <= '9' do incr i done;
    if !i = digits0 || !i >= len then None
    else
      match int_of_string_opt (String.sub payload plen (!i - plen)) with
      | None -> None
      | Some id -> (
        match payload.[!i] with
        | ',' ->
          Some (id, "{" ^ String.sub payload (!i + 1) (len - !i - 1))
        | '}' when !i = len - 1 -> Some (id, "{}")
        | _ -> None)
  end

(* ---------------- request codec ---------------- *)

(* omit empty/None fields so frames stay small *)
let opt_field k f = function None -> [] | Some v -> [ (k, f v) ]
let list_field k f = function [] -> [] | xs -> [ (k, Json.List (List.map f xs)) ]

(* [pool] is emitted only when set, so pre-pool clients and daemons
   exchange byte-identical frames *)
let pool_field pool = if pool then [ ("pool", Json.Bool true) ] else []

let with_id ?id j =
  match (id, j) with
  | Some n, Json.Obj fields -> Json.Obj (("id", Json.Int n) :: fields)
  | _ -> j

let json_of_request_body = function
  | (Advise { src; scheme; args; pool; deadline_ms }
    | Bench { src; scheme; args; pool; deadline_ms }) as r ->
    let kind = match r with Advise _ -> "advise" | _ -> "bench" in
    Json.Obj
      ([ ("kind", Json.String kind); ("src", Json.String src) ]
      @ opt_field "scheme" (fun s -> Json.String s) scheme
      @ list_field "args" (fun i -> Json.Int i) args
      @ pool_field pool
      @ opt_field "deadline_ms" (fun f -> Json.Float f) deadline_ms)
  | Check { src; relax; deadline_ms } ->
    Json.Obj
      ([ ("kind", Json.String "check"); ("src", Json.String src) ]
      @ (if relax then [ ("relax", Json.Bool true) ] else [])
      @ opt_field "deadline_ms" (fun f -> Json.Float f) deadline_ms)
  | Tune { src; scheme; args; beam; deadline_ms } ->
    Json.Obj
      ([ ("kind", Json.String "tune"); ("src", Json.String src) ]
      @ opt_field "scheme" (fun s -> Json.String s) scheme
      @ list_field "args" (fun i -> Json.Int i) args
      @ opt_field "beam" (fun b -> Json.Int b) beam
      @ opt_field "deadline_ms" (fun f -> Json.Float f) deadline_ms)
  | Stats -> Json.Obj [ ("kind", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("kind", Json.String "shutdown") ]

let json_of_request ?id r = with_id ?id (json_of_request_body r)

let get_string j k =
  match Json.member k j with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Ok None

let get_number j k =
  match Json.member k j with
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" k)
  | None -> Ok None

let get_int_list j k =
  match Json.member k j with
  | Some (Json.List xs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Int i :: tl -> go (i :: acc) tl
      | _ -> Error (Printf.sprintf "field %S must be a list of ints" k)
    in
    go [] xs
  | Some _ -> Error (Printf.sprintf "field %S must be a list of ints" k)
  | None -> Ok []

let ( let* ) = Result.bind

let request_of_json j =
  match j with
  | Json.Obj _ -> (
    let* kind = get_string j "kind" in
    match kind with
    | None -> Error "missing \"kind\""
    | Some ("advise" | "bench") as k -> (
      let* src = get_string j "src" in
      match src with
      | None -> Error "missing \"src\""
      | Some src ->
        let* scheme = get_string j "scheme" in
        let* args = get_int_list j "args" in
        let* deadline_ms = get_number j "deadline_ms" in
        let* pool =
          match Json.member "pool" j with
          | Some (Json.Bool b) -> Ok b
          | Some _ -> Error "field \"pool\" must be a bool"
          | None -> Ok false
        in
        if k = Some "advise" then Ok (Advise { src; scheme; args; pool; deadline_ms })
        else Ok (Bench { src; scheme; args; pool; deadline_ms }))
    | Some "check" -> (
      let* src = get_string j "src" in
      match src with
      | None -> Error "missing \"src\""
      | Some src ->
        let* relax =
          match Json.member "relax" j with
          | Some (Json.Bool b) -> Ok b
          | Some _ -> Error "field \"relax\" must be a bool"
          | None -> Ok false
        in
        let* deadline_ms = get_number j "deadline_ms" in
        Ok (Check { src; relax; deadline_ms }))
    | Some "tune" -> (
      let* src = get_string j "src" in
      match src with
      | None -> Error "missing \"src\""
      | Some src ->
        let* scheme = get_string j "scheme" in
        let* args = get_int_list j "args" in
        let* beam =
          match Json.member "beam" j with
          | Some (Json.Int b) -> Ok (Some b)
          | Some _ -> Error "field \"beam\" must be an int"
          | None -> Ok None
        in
        let* deadline_ms = get_number j "deadline_ms" in
        Ok (Tune { src; scheme; args; beam; deadline_ms }))
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some k -> Error (Printf.sprintf "unknown kind %S" k))
  | _ -> Error "request must be a JSON object"

(* ---------------- reply codec ---------------- *)

let json_of_latency l =
  Json.Obj
    [
      ("count", Json.Int l.l_count);
      ("p50_ms", Json.Float l.l_p50_ms);
      ("p95_ms", Json.Float l.l_p95_ms);
      ("p99_ms", Json.Float l.l_p99_ms);
      ("max_ms", Json.Float l.l_max_ms);
    ]

let json_of_counts kvs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let json_of_reply_body = function
  | R_advise { a_report; a_cached } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("kind", Json.String "advise");
        ("report", Json.String a_report);
        ("cached", Json.Bool a_cached);
      ]
  | R_bench b ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("kind", Json.String "bench");
        ("cycles_before", Json.Int b.b_cycles_before);
        ("cycles_after", Json.Int b.b_cycles_after);
        ("speedup_pct", Json.Float b.b_speedup_pct);
        ("plans", Json.List (List.map (fun p -> Json.String p) b.b_plans));
        ("cached", Json.Bool b.b_cached);
      ]
  | R_check c ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("kind", Json.String "check");
        ("report", Json.String c.c_report);
        ("sarif", Json.String c.c_sarif);
        ("invalidating", Json.Int c.c_invalidating);
        ("cached", Json.Bool c.c_cached);
      ]
  | R_tune t ->
    let strings xs = Json.List (List.map (fun p -> Json.String p) xs) in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("kind", Json.String "tune");
        ("plans", strings t.t_plans);
        ("heuristic_plans", strings t.t_heuristic_plans);
        ("baseline_cycles", Json.Int t.t_baseline_cycles);
        ("heuristic_cycles", Json.Int t.t_heuristic_cycles);
        ("found_cycles", Json.Int t.t_found_cycles);
        ("improved", Json.Bool t.t_improved);
        ("explored", Json.Int t.t_explored);
        ("total", Json.Int t.t_total);
        ("complete", Json.Bool t.t_complete);
        ("cached", Json.Bool t.t_cached);
      ]
  | R_stats s ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("kind", Json.String "stats");
        ("uptime_s", Json.Float s.s_uptime_s);
        ("requests", json_of_counts s.s_requests);
        ("errors", json_of_counts s.s_errors);
        ( "cache",
          Json.Obj
            [
              ("result_hits", Json.Int s.s_result_hits);
              ("result_misses", Json.Int s.s_result_misses);
              ("ir_hits", Json.Int s.s_ir_hits);
              ("ir_misses", Json.Int s.s_ir_misses);
              ("disk_hits", Json.Int s.s_disk_hits);
              ("disk_misses", Json.Int s.s_disk_misses);
              ("entries", Json.Int s.s_cache_entries);
              ("bytes", Json.Int s.s_cache_bytes);
              ("evictions", Json.Int s.s_cache_evictions);
            ] );
        ("inflight", Json.Int s.s_inflight);
        ("queued", Json.Int s.s_queued);
        ("shedding", Json.Bool s.s_shedding);
        ("conns", Json.Int s.s_conns);
        ("latency_ms", json_of_latency s.s_latency);
      ]
  | R_shutdown ->
    Json.Obj [ ("ok", Json.Bool true); ("kind", Json.String "shutdown") ]
  | R_error { code; message } ->
    Json.Obj
      [
        ("ok", Json.Bool false);
        ("code", Json.String (error_code_name code));
        ("message", Json.String message);
      ]

let json_of_reply ?id r = with_id ?id (json_of_reply_body r)

(* prefix scan of a serialized reply: its id (when emitted canonically)
   and its ok/error classification, without a JSON parse. The emitter
   puts "ok" first and, for errors, "code" immediately after, so the
   open-loop load generator can account replies at line rate. *)
let scan_reply_header payload =
  let id, rest =
    match strip_id payload with
    | Some (id, rest) -> (Some id, rest)
    | None -> (None, payload)
  in
  let starts p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if starts "{\"ok\":true" rest then (id, Ok ())
  else if starts "{\"ok\":false,\"code\":\"" rest then begin
    let from = String.length "{\"ok\":false,\"code\":\"" in
    let stop = try String.index_from rest from '"' with Not_found -> from in
    (id, Error (String.sub rest from (stop - from)))
  end
  else (id, Error "undecodable")

let counts_of_json j k =
  match Json.member k j with
  | Some (Json.Obj fields) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, Json.Int n) :: tl -> go ((name, n) :: acc) tl
      | _ -> Error (Printf.sprintf "field %S must map names to ints" k)
    in
    go [] fields
  | _ -> Error (Printf.sprintf "missing counts object %S" k)

let req_int j k =
  match Json.member k j with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing int field %S" k)

let req_float j k =
  match get_number j k with
  | Ok (Some f) -> Ok f
  | Ok None -> Error (Printf.sprintf "missing number field %S" k)
  | Error e -> Error e

let latency_of_json j =
  let* l_count = req_int j "count" in
  let* l_p50_ms = req_float j "p50_ms" in
  let* l_p95_ms = req_float j "p95_ms" in
  let* l_p99_ms = req_float j "p99_ms" in
  let* l_max_ms = req_float j "max_ms" in
  Ok { l_count; l_p50_ms; l_p95_ms; l_p99_ms; l_max_ms }

let stats_of_json j =
  let* s_uptime_s = req_float j "uptime_s" in
  let* s_requests = counts_of_json j "requests" in
  let* s_errors = counts_of_json j "errors" in
  match Json.member "cache" j with
  | None -> Error "missing \"cache\""
  | Some c ->
    let* s_result_hits = req_int c "result_hits" in
    let* s_result_misses = req_int c "result_misses" in
    let* s_ir_hits = req_int c "ir_hits" in
    let* s_ir_misses = req_int c "ir_misses" in
    let* s_disk_hits = req_int c "disk_hits" in
    let* s_disk_misses = req_int c "disk_misses" in
    let* s_cache_entries = req_int c "entries" in
    let* s_cache_bytes = req_int c "bytes" in
    let* s_cache_evictions = req_int c "evictions" in
    let* s_inflight = req_int j "inflight" in
    let* s_queued = req_int j "queued" in
    let* s_shedding =
      match Json.member "shedding" j with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "missing bool field \"shedding\""
    in
    let* s_conns = req_int j "conns" in
    (match Json.member "latency_ms" j with
    | None -> Error "missing \"latency_ms\""
    | Some l ->
      let* s_latency = latency_of_json l in
      Ok
        {
          s_uptime_s;
          s_requests;
          s_errors;
          s_result_hits;
          s_result_misses;
          s_ir_hits;
          s_ir_misses;
          s_disk_hits;
          s_disk_misses;
          s_cache_entries;
          s_cache_bytes;
          s_cache_evictions;
          s_inflight;
          s_queued;
          s_shedding;
          s_conns;
          s_latency;
        })

let reply_of_json j =
  match Json.member "ok" j with
  | Some (Json.Bool false) -> (
    let* code = get_string j "code" in
    let* message = get_string j "message" in
    match code with
    | None -> Error "error reply missing \"code\""
    | Some code -> (
      match error_code_of_name code with
      | None -> Error (Printf.sprintf "unknown error code %S" code)
      | Some code ->
        Ok (R_error { code; message = Option.value ~default:"" message })))
  | Some (Json.Bool true) -> (
    let* kind = get_string j "kind" in
    match kind with
    | Some "advise" -> (
      let* report = get_string j "report" in
      match (report, Json.member "cached" j) with
      | Some a_report, Some (Json.Bool a_cached) ->
        Ok (R_advise { a_report; a_cached })
      | _ -> Error "advise reply missing report/cached")
    | Some "bench" -> (
      let* b_cycles_before = req_int j "cycles_before" in
      let* b_cycles_after = req_int j "cycles_after" in
      let* b_speedup_pct = req_float j "speedup_pct" in
      let* b_plans =
        match Json.member "plans" j with
        | Some (Json.List xs) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.String s :: tl -> go (s :: acc) tl
            | _ -> Error "plans must be strings"
          in
          go [] xs
        | _ -> Error "bench reply missing plans"
      in
      match Json.member "cached" j with
      | Some (Json.Bool b_cached) ->
        Ok
          (R_bench
             {
               b_cycles_before;
               b_cycles_after;
               b_speedup_pct;
               b_plans;
               b_cached;
             })
      | _ -> Error "bench reply missing cached")
    | Some "check" -> (
      let* report = get_string j "report" in
      let* sarif = get_string j "sarif" in
      let* c_invalidating = req_int j "invalidating" in
      match (report, sarif, Json.member "cached" j) with
      | Some c_report, Some c_sarif, Some (Json.Bool c_cached) ->
        Ok (R_check { c_report; c_sarif; c_invalidating; c_cached })
      | _ -> Error "check reply missing report/sarif/cached")
    | Some "tune" -> (
      let str_list k =
        match Json.member k j with
        | Some (Json.List xs) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.String s :: tl -> go (s :: acc) tl
            | _ -> Error (Printf.sprintf "%s must be strings" k)
          in
          go [] xs
        | _ -> Error (Printf.sprintf "tune reply missing %s" k)
      in
      let bool_field k =
        match Json.member k j with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error (Printf.sprintf "tune reply missing bool %s" k)
      in
      let* t_plans = str_list "plans" in
      let* t_heuristic_plans = str_list "heuristic_plans" in
      let* t_baseline_cycles = req_int j "baseline_cycles" in
      let* t_heuristic_cycles = req_int j "heuristic_cycles" in
      let* t_found_cycles = req_int j "found_cycles" in
      let* t_improved = bool_field "improved" in
      let* t_explored = req_int j "explored" in
      let* t_total = req_int j "total" in
      let* t_complete = bool_field "complete" in
      let* t_cached = bool_field "cached" in
      Ok
        (R_tune
           {
             t_plans;
             t_heuristic_plans;
             t_baseline_cycles;
             t_heuristic_cycles;
             t_found_cycles;
             t_improved;
             t_explored;
             t_total;
             t_complete;
             t_cached;
           }))
    | Some "stats" ->
      let* s = stats_of_json j in
      Ok (R_stats s)
    | Some "shutdown" -> Ok R_shutdown
    | _ -> Error "reply missing kind")
  | _ -> Error "reply missing \"ok\""

(* ---------------- framing ---------------- *)

exception Framing_error of string

let max_frame_bytes = 64 * 1024 * 1024

let write_frame_noflush oc payload =
  let n = String.length payload in
  if n > max_frame_bytes then
    raise (Framing_error (Printf.sprintf "frame of %d bytes over limit" n));
  output_string oc (string_of_int n);
  output_char oc '\n';
  output_string oc payload

let write_frame oc payload =
  write_frame_noflush oc payload;
  flush oc

(* write a frame with the id spliced in on the fly: the reply bytes are
   shared cached strings, so the splice must not build an intermediate
   per-request copy *)
let write_frame_id oc ?id payload =
  match id with
  | None -> write_frame_noflush oc payload
  | Some n ->
    let len = String.length payload in
    if len < 2 || payload.[0] <> '{' then
      invalid_arg "Protocol.write_frame_id: payload is not a JSON object";
    let ns = string_of_int n in
    let empty = len = 2 && payload.[1] = '}' in
    let total = 6 + String.length ns + (if empty then 1 else len) in
    if total > max_frame_bytes then
      raise (Framing_error (Printf.sprintf "frame of %d bytes over limit" total));
    output_string oc (string_of_int total);
    output_char oc '\n';
    output_string oc "{\"id\":";
    output_string oc ns;
    if empty then output_char oc '}'
    else begin
      output_char oc ',';
      output_substring oc payload 1 (len - 1)
    end

let read_frame ic =
  (* length line: ASCII digits then '\n'; EOF before the first byte is a
     clean end of stream *)
  let rec read_len acc first =
    match input_char ic with
    | exception End_of_file ->
      if first then None else raise (Framing_error "EOF inside frame length")
    | '\n' ->
      if first then raise (Framing_error "empty frame length") else Some acc
    | '0' .. '9' as c ->
      let acc = (acc * 10) + (Char.code c - Char.code '0') in
      if acc > max_frame_bytes then
        raise (Framing_error "frame length over limit");
      read_len acc false
    | c ->
      raise
        (Framing_error (Printf.sprintf "bad byte %C in frame length" c))
  in
  match read_len 0 true with
  | None -> None
  | Some n -> (
    match really_input_string ic n with
    | s -> Some s
    | exception End_of_file ->
      raise
        (Framing_error
           (Printf.sprintf "EOF inside frame payload (wanted %d bytes)" n)))
