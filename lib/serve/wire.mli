(** The wire protocol of lamp.serve.

    Every message is one {e frame}: a 16-byte header — the payload
    length and a checksum of the payload, both 8-byte big-endian —
    followed by the payload, a {!Lamp_jobs.Codec} encoding of a
    {!request} or {!response}. Every request payload starts with the
    same fixed {!header} (trace id, span id, optional idempotency key)
    followed by one {!op}. Framing and payload reuse the checkpoint
    codec deliberately: its decoders treat input as untrusted (length
    prefixes are validated before allocation, malformed bytes raise
    {!Lamp_jobs.Codec.Corrupt}, never crash), which is exactly the
    contract a network-facing parser needs. The checksum detects any
    single-byte corruption of the payload in flight; a mismatch is
    connection-fatal, because a damaged stream cannot be resynced.

    Encodings are canonical — the payload bytes are a pure function of
    the message value — so the equivalence tests can compare raw frames,
    and the property tests can round-trip random messages. *)

val protocol_version : int
(** Bumped on any incompatible change to the frame or message layout
    (currently 4). There is one dialect: {!Hello} carries the client's
    copy, and the server accepts exactly its own version, answering any
    other with a [Bad_request] error that names both. *)

val max_frame : int
(** Default upper bound on a payload length (256 MiB). A frame header
    announcing more raises {!Too_large} {e before} any allocation — a
    hostile length prefix can never force a giant buffer. Servers can
    lower it per config ([?max_len] on the framed reads). *)

(** {1 Messages} *)

(** How an {!Execute} request runs the query. [Local] is the
    single-server compiled-plan engine, bit-identical to
    [Cq.Eval.eval]. The MPC modes simulate the paper's one-round
    algorithms on [p] servers and return their {!Lamp_mpc.Stats.t};
    [Repartition] and [Grid] run those algorithms' fixed queries
    (Examples 3.1(1a) and 3.1(1b)) and ignore the request's plan. *)
type mode =
  | Local
  | Hypercube of { p : int }
  | Repartition of { p : int }
  | Grid of { p : int }

(** A prepared plan id returned by {!Prepare}, or the query text
    compiled (through the same cache) on the fly. *)
type plan_ref =
  | Id of int
  | Adhoc of string

(** What a request asks the server to do. *)
type op =
  | Hello of { client : string; version : int }
      (** First request of a session: names the client (the quota key)
          and checks protocol compatibility. *)
  | Prepare of { instance : string; query : string }
      (** Compile [query] against the named instance once; later
          {!Execute}s reference the returned id. Idempotent: the same
          query text on the same instance returns the cached plan. *)
  | Execute of { instance : string; plan : plan_ref; mode : mode }
  | Ingest of { instance : string; facts : Lamp_relational.Fact.t list }
      (** Batch-load facts; bumps the instance version, retiring pooled
          engine handles and cached plans built on the old contents. *)
  | Stats
  | Health
  | Metrics
      (** Live telemetry scrape: the server answers {!Metrics_reply}
          with an OpenMetrics text snapshot ([Obs.Export.openmetrics]). *)
  | Trace_dump of { limit : int }
      (** The most recent [limit] completed server-side spans, newest
          last ({!Trace_reply}). *)

type header = {
  trace : int;
  span : int;
      (** The caller's trace id and span id. The server records every
          op except [Hello], [Metrics] and [Trace_dump] under a
          ["serve.request"] span carrying both, so a client span and
          its server span correlate in one timeline; scrapes read the
          trace without adding to it. *)
  key : int option;
      (** Idempotency key: [Some k] identifies one {e logical} op. A
          client retrying after a connection loss re-sends the same
          key; the server's dedup window (keyed by client name and
          [k]) replays the recorded responses instead of re-executing,
          so a retried ingest applies exactly once. The window entry is
          tied to a digest of the encoded {!op} alone, never the
          header: a retry carries a fresh span id and must still
          replay. A keyed [Hello] is refused with [Bad_request]. *)
}
(** Carried by every request frame, in front of its {!op}. *)

type request = {
  header : header;
  op : op;
}

type error_code =
  | Bad_request  (** Unknown instance/plan id, parse error, bad frame. *)
  | Rejected  (** Admission control: too many requests in flight. *)
  | Throttled  (** The client's token bucket is empty. *)
  | Failed  (** The engine raised; the message carries the exception. *)
  | Overloaded of { retry_after_s : float }
      (** Load shedding: queue wait is past the server's watermark and
          this request was low-priority work. The client should back
          off at least [retry_after_s] seconds; resilient clients honor
          it as a floor on their next retry delay. *)
  | Corrupt_frame
      (** The server could not decode the client's frame (checksum
          mismatch, bad length, malformed payload) and is hanging up;
          safe to retry on a fresh connection. *)

type server_stats = {
  sessions : int;  (** Connected sessions, including the asker. *)
  active_requests : int;  (** Requests past admission, not yet answered. *)
  executor_in_flight : int;  (** {!Lamp_runtime.Executor.in_flight}. *)
  pool_workers : int;  (** Executor workers (1 on seq). *)
  plan_cache_size : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  handle_pools : (string * int * int) list;
      (** Per instance: (name, handles in use, idle handles). *)
  requests_served : int;
  rejected : int;
  throttled : int;
  uptime_s : float;  (** Seconds since the server was created. *)
  deduped : int;
      (** Requests with an idempotency key answered from the dedup
          window instead of re-executed. *)
  shed : int;  (** Requests rejected with [Overloaded] while load shedding. *)
  reaped : int;
      (** Sessions torn down by a read/write deadline, the idle
          timeout or the stalled-connection reaper. *)
}

type span_info = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;  (** Domain/thread id the span ran on. *)
  sp_t : float;  (** Start, seconds since the trace clock's origin. *)
  sp_dur : float;  (** Duration in seconds. *)
}
(** One completed server-side span, as shipped by {!Trace_reply}. *)

type response =
  | Hello_ok of { server : string; version : int }
  | Prepared of { id : int; cached : bool; atoms : int }
      (** [cached] is true on a plan-cache hit; [atoms] is the number
          of join steps of the compiled plan. *)
  | Batch of Lamp_relational.Fact.t list
      (** One chunk of an {!Execute} result; zero or more precede
          {!Done}. Facts arrive in canonical (sorted-set) order. *)
  | Done of { facts : int; stats : Lamp_mpc.Stats.t option }
      (** Terminates an {!Execute} stream. [facts] is the total across
          batches, a framing cross-check; [stats] is the MPC load
          accounting ([None] for [Local] mode). *)
  | Ingested of { added : int }
  | Stats_reply of server_stats
  | Healthy
  | Error of { code : error_code; message : string }
  | Metrics_reply of string
      (** OpenMetrics text exposition of the server's live metrics. *)
  | Trace_reply of span_info list
      (** Recent completed server spans, oldest first. *)

(** {1 Codecs}

    Pure encode/decode, exposed for the property tests; the framed I/O
    below wraps them. Decoders raise {!Lamp_jobs.Codec.Corrupt} on
    malformed input and verify the whole payload is consumed. *)

val op_to_string : op -> string
(** The op's encoding without a header: what the dedup digest covers. *)

val request_to_string : request -> string
val request_of_string : string -> request
val response_to_string : response -> string
val response_of_string : string -> response

(** {1 Framed I/O}

    Blocking reads/writes on a connected socket. Short reads and writes
    are retried; EOF mid-frame raises {!Closed}; a frame header
    announcing a negative payload or one whose checksum does not match
    raises {!Lamp_jobs.Codec.Corrupt}; a length past the limit raises
    {!Too_large} before any allocation.

    Every operation takes an optional {e absolute} [deadline] (a
    [Unix.gettimeofday] timestamp): when the socket is not ready by
    then, {!Timed_out} is raised and the frame is torn — the connection
    must be abandoned, not reused.

    {b Global side effect — SIGPIPE.} The first framed {e write} in a
    process sets the {e process-wide} SIGPIPE disposition to
    [Signal_ignore] (OCaml's [Unix] module exposes no per-write
    [MSG_NOSIGNAL]), so a write after the peer's FIN surfaces as
    [EPIPE] → {!Closed} instead of killing the process. This replaces
    whatever disposition the embedding application had installed: a
    host that relies on SIGPIPE termination (e.g. one whose stdout is
    piped) must reinstall its handler {e after} the first wire write.
    The overwrite happens once per process and is never undone. *)

exception Closed
(** The peer closed or reset the connection (EOF or ECONNRESET/EPIPE on
    a frame boundary or mid-frame). *)

exception Timed_out
(** An I/O deadline passed mid-frame; the stream position is
    unknown and the connection must be dropped. *)

exception Too_large of {
  len : int;  (** The announced payload length. *)
  limit : int;  (** The limit it exceeded. *)
}
(** A frame header announced a payload larger than the configured
    limit. Raised before allocating anything. *)

val checksum : string -> int
(** The frame checksum: a 63-bit FNV-style polynomial fold. Any
    single-byte change at any position changes the digest. Exposed for
    the property tests. *)

val wait_readable : ?timeout_s:float -> Unix.file_descr -> bool
(** Blocks until the descriptor is readable (true) or [timeout_s]
    elapses (false; never with no timeout). EINTR-safe. *)

val read_frame : ?max_len:int -> ?deadline:float -> Unix.file_descr -> string
(** [max_len] defaults to {!max_frame}. *)

val write_frame : ?deadline:float -> Unix.file_descr -> string -> unit

val read_request :
  ?max_len:int -> ?deadline:float -> Unix.file_descr -> request

val write_request : ?deadline:float -> Unix.file_descr -> request -> unit

val read_response :
  ?max_len:int -> ?deadline:float -> Unix.file_descr -> response

val write_response : ?deadline:float -> Unix.file_descr -> response -> unit
