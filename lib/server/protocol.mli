(** Wire protocol of the layout-advice daemon.

    {2 Framing}

    A frame is the payload's byte length in ASCII decimal, a single
    ['\n'], then exactly that many payload bytes. The payload is one
    strict JSON document ({!Slo_util.Json.of_string} rejects trailing
    garbage, so a frame is exactly one parse). Both directions use the
    same framing.

    {2 Pipelining and request ids}

    A connection carries any number of requests. A client may send
    several without waiting (pipelining); the server bounds the
    per-connection in-flight window and {e replies may complete out of
    order} — a cached [advise] sent after a slow [bench] returns first.
    To correlate, a pipelining client tags each request with an integer
    ["id"] field; the server echoes it verbatim on the matching reply.
    Requests without an id get replies without one, and such replies
    are delivered in request order only when the client never has more
    than one request outstanding (the plain {!Client.rpc} discipline).
    The id is always emitted as the {e first} object field, so hot
    paths can splice ({!inject_id}) or strip ({!strip_id}) it without a
    JSON parse.

    {2 Requests}

    {[ {"kind":"advise","src":"struct s {...};...","scheme":"ispbo",
        "args":[3],"deadline_ms":250.0}
       {"kind":"bench","src":"...","scheme":"spbo","pool":true}
       {"kind":"check","src":"...","relax":true}
       {"kind":"tune","src":"...","scheme":"ispbo","beam":4,
        "deadline_ms":500.0}
       {"kind":"stats"}
       {"kind":"shutdown"} ]}

    [src] carries Mini-C source inline — the daemon is content-addressed,
    there are no file paths in the protocol. [scheme] is spelled like
    the CLI flag; the server validates it and answers [bad_request] for
    an unknown spelling. The decoder ignores fields it does not know. A
    [backend] field, which older clients send on [bench] and [tune], is
    one of them: every run is on the compiled VM engine, so such a frame
    gets the reply, and shares the cache entry, of the same frame
    without it.

    {2 Replies}

    Success: [{"ok":true,"kind":...,...}]. Failure:
    [{"ok":false,"code":"timeout","message":"..."}] — the connection
    stays usable after an error reply (except [bad_frame], after which
    the stream offset is unreliable and the server closes). *)

type error_code =
  | Bad_request     (** malformed JSON, unknown kind or scheme *)
  | Parse_error     (** Mini-C lexing or parsing failed *)
  | Type_error      (** Mini-C type checking failed *)
  | Legality_error  (** lowering unsupported, or the IR verifier failed *)
  | Worker_crash    (** the pool job died; message carries the exception *)
  | Timeout         (** the request's [deadline_ms] expired *)
  | Overloaded      (** connection limit reached; server closes after *)
  | Shutting_down   (** daemon is draining; no new work accepted *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

type request =
  | Advise of {
      src : string;
      scheme : string option;       (** default ["ispbo"] *)
      args : int list;              (** profile-collection args for PBO *)
      pool : bool;                  (** plan index-linked pools for
                                        shape-proven recursive types
                                        (default false; the field is
                                        omitted from the wire frame when
                                        unset, so old peers interoperate) *)
      deadline_ms : float option;
    }
  | Bench of {
      src : string;
      scheme : string option;
      args : int list;
      pool : bool;                  (** as on [Advise]: plan index-linked
                                        pools before measuring (default
                                        false, omitted from the frame
                                        when unset) *)
      deadline_ms : float option;
    }
  | Check of {
      src : string;
      relax : bool;                 (** tolerate CSTT/CSTF/ATKN (default false) *)
      deadline_ms : float option;
    }
  | Tune of {
      src : string;
      scheme : string option;
      args : int list;
      beam : int option;            (** permutation beam, default the tuner's *)
      deadline_ms : float option;
          (** anytime {e search budget}, not a transport deadline: on
              expiry the reply carries the best plan found so far
              ([complete=false]) — never a [timeout] error *)
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
  s_requests : (string * int) list;  (** request kind -> served count *)
  s_errors : (string * int) list;    (** error code -> reply count *)
  s_result_hits : int;               (** request bytes -> reply cache *)
  s_result_misses : int;
  s_ir_hits : int;
      (** always 0: the daemon caches no compiled programs. Kept on the
          wire because older peers' decoders require the field *)
  s_ir_misses : int;                 (** programs compiled *)
  s_disk_hits : int;                 (** persistent-cache loads *)
  s_disk_misses : int;               (** result misses the disk lacked too *)
  s_cache_entries : int;
  s_cache_bytes : int;
  s_cache_evictions : int;
  s_inflight : int;                  (** requests being processed now *)
  s_queued : int;                    (** compute jobs submitted, unfinished *)
  s_shedding : bool;                 (** admission control is refusing bench *)
  s_conns : int;                     (** open connections *)
  s_latency : latency;               (** service latency, all kinds *)
}

type reply =
  | R_advise of { a_report : string; a_cached : bool }
  | R_bench of {
      b_cycles_before : int;
      b_cycles_after : int;
      b_speedup_pct : float;
      b_plans : string list;         (** one summary line per applied plan *)
      b_cached : bool;
    }
  | R_check of {
      c_report : string;             (** rendered caret diagnostics *)
      c_sarif : string;              (** SARIF 2.1.0 document *)
      c_invalidating : int;          (** findings that block transformation *)
      c_cached : bool;
    }
  | R_tune of {
      t_plans : string list;
          (** the winning whole-program plan, one
              {!Slo_core.Codec.plan_to_string} record per entry — parse
              back with {!Slo_core.Codec.plan_of_string} *)
      t_heuristic_plans : string list;  (** the incumbent, same encoding *)
      t_baseline_cycles : int;
      t_heuristic_cycles : int;
      t_found_cycles : int;
      t_improved : bool;             (** found strictly beats the heuristic *)
      t_explored : int;              (** candidates scored within budget *)
      t_total : int;                 (** candidates enumerated *)
      t_complete : bool;             (** the whole space was scored *)
      t_cached : bool;
    }
  | R_stats of stats_reply
  | R_shutdown
  | R_error of { code : error_code; message : string }

(* ---------------- JSON codecs ---------------- *)

val json_of_request : ?id:int -> request -> Slo_util.Json.t
(** With [?id], an ["id"] field is prepended (see {e Pipelining}). *)

val request_of_json : Slo_util.Json.t -> (request, string) result
(** [Error] is a human-readable reason, sent back as [bad_request].
    Ignores a top-level ["id"] field (read it with {!id_of_frame}). *)

val json_of_reply : ?id:int -> reply -> Slo_util.Json.t

val reply_of_json : Slo_util.Json.t -> (reply, string) result

(* ---------------- id plumbing (pipelining hot paths) ---------------- *)

val id_of_frame : Slo_util.Json.t -> int option
(** The top-level ["id"] of a parsed frame, if any. *)

val inject_id : ?id:int -> string -> string
(** [inject_id ~id payload] prepends ["id":id] to a {e serialized} JSON
    object, producing the same bytes [json_of_... ~id] would have.
    Identity when [id] is [None]. Raises [Invalid_argument] if the
    payload is not an object. *)

val strip_id : string -> (int * string) option
(** Textual inverse of {!inject_id}: [Some (id, rest)] when the payload
    carries a canonical leading id field, [rest] being the object with
    the field removed. [None] for payloads without one (including ids
    emitted non-canonically by foreign clients — callers must treat
    [None] as "fall back to a full parse", never as "no id"). *)

val scan_reply_header : string -> int option * (unit, string) result
(** Prefix-scan of a serialized reply: its canonical id (if any) and
    [Ok ()] for a success reply or [Error code_name] for an error
    reply. No allocation proportional to the payload; the open-loop
    load generator accounts replies with this instead of a parse. *)

(* ---------------- framing ---------------- *)

exception Framing_error of string
(** Malformed length line, an over-limit frame, or EOF mid-frame. After
    this the stream offset is unreliable: close the connection. *)

val max_frame_bytes : int
(** 64 MiB — an inline source or report will not legitimately exceed
    this; anything bigger is a protocol error, not a big request. *)

val write_frame : out_channel -> string -> unit
(** Write one frame and flush. *)

val write_frame_noflush : out_channel -> string -> unit
(** Write one frame without flushing — batching several frames under
    one flush amortizes the write syscall when pipelined replies
    complete back to back. *)

val write_frame_id : out_channel -> ?id:int -> string -> unit
(** [write_frame_id oc ?id payload] writes one unflushed frame with
    [id] spliced into the leading ["id"] position on the fly —
    equivalent to [write_frame_noflush oc (inject_id ?id payload)]
    without materializing the per-request copy of the shared cached
    reply bytes. *)

val read_frame : in_channel -> string option
(** [None] on a clean EOF at a frame boundary; raises {!Framing_error}
    otherwise. *)
