module Codec = Lamp_jobs.Codec
module Stats = Lamp_mpc.Stats

(* There is one dialect: the server refuses a hello of any other
   version instead of negotiating, so any layout change bumps this. *)
let protocol_version = 4
let max_frame = 256 * 1024 * 1024

type mode =
  | Local
  | Hypercube of { p : int }
  | Repartition of { p : int }
  | Grid of { p : int }

type plan_ref =
  | Id of int
  | Adhoc of string

type op =
  | Hello of { client : string; version : int }
  | Prepare of { instance : string; query : string }
  | Execute of { instance : string; plan : plan_ref; mode : mode }
  | Ingest of { instance : string; facts : Lamp_relational.Fact.t list }
  | Stats
  | Health
  | Metrics
  | Trace_dump of { limit : int }

type header = {
  trace : int;
  span : int;
  key : int option;
}

type request = {
  header : header;
  op : op;
}

type error_code =
  | Bad_request
  | Rejected
  | Throttled
  | Failed
  | Overloaded of { retry_after_s : float }
  | Corrupt_frame

type server_stats = {
  sessions : int;
  active_requests : int;
  executor_in_flight : int;
  pool_workers : int;
  plan_cache_size : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  handle_pools : (string * int * int) list;
  requests_served : int;
  rejected : int;
  throttled : int;
  uptime_s : float;
  deduped : int;
  shed : int;
  reaped : int;
}

type span_info = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_t : float;
  sp_dur : float;
}

type response =
  | Hello_ok of { server : string; version : int }
  | Prepared of { id : int; cached : bool; atoms : int }
  | Batch of Lamp_relational.Fact.t list
  | Done of { facts : int; stats : Lamp_mpc.Stats.t option }
  | Ingested of { added : int }
  | Stats_reply of server_stats
  | Healthy
  | Error of { code : error_code; message : string }
  | Metrics_reply of string
  | Trace_reply of span_info list

(* Codecs. Every variant gets a one-character tag; unknown tags raise
   Corrupt with the offending byte, like the checkpoint codecs. *)

let w_mode b = function
  | Local -> Codec.w_char b 'l'
  | Hypercube { p } ->
    Codec.w_char b 'h';
    Codec.w_int b p
  | Repartition { p } ->
    Codec.w_char b 'r';
    Codec.w_int b p
  | Grid { p } ->
    Codec.w_char b 'g';
    Codec.w_int b p

let r_mode r =
  match Codec.r_char r with
  | 'l' -> Local
  | 'h' -> Hypercube { p = Codec.r_int r }
  | 'r' -> Repartition { p = Codec.r_int r }
  | 'g' -> Grid { p = Codec.r_int r }
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad mode tag %C" c))

let w_plan_ref b = function
  | Id id ->
    Codec.w_char b 'i';
    Codec.w_int b id
  | Adhoc q ->
    Codec.w_char b 'a';
    Codec.w_string b q

let r_plan_ref r =
  match Codec.r_char r with
  | 'i' -> Id (Codec.r_int r)
  | 'a' -> Adhoc (Codec.r_string r)
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad plan-ref tag %C" c))

let w_op b = function
  | Hello { client; version } ->
    Codec.w_char b 'h';
    Codec.w_string b client;
    Codec.w_int b version
  | Prepare { instance; query } ->
    Codec.w_char b 'p';
    Codec.w_string b instance;
    Codec.w_string b query
  | Execute { instance; plan; mode } ->
    Codec.w_char b 'x';
    Codec.w_string b instance;
    w_plan_ref b plan;
    w_mode b mode
  | Ingest { instance; facts } ->
    Codec.w_char b 'g';
    Codec.w_string b instance;
    Codec.w_list b Codec.w_fact facts
  | Stats -> Codec.w_char b 's'
  | Health -> Codec.w_char b '?'
  | Metrics -> Codec.w_char b 'm'
  | Trace_dump { limit } ->
    Codec.w_char b 't';
    Codec.w_int b limit

let r_op r =
  match Codec.r_char r with
  | 'h' ->
    let client = Codec.r_string r in
    Hello { client; version = Codec.r_int r }
  | 'p' ->
    let instance = Codec.r_string r in
    Prepare { instance; query = Codec.r_string r }
  | 'x' ->
    let instance = Codec.r_string r in
    let plan = r_plan_ref r in
    Execute { instance; plan; mode = r_mode r }
  | 'g' ->
    let instance = Codec.r_string r in
    Ingest { instance; facts = Codec.r_list r Codec.r_fact }
  | 's' -> Stats
  | '?' -> Health
  | 'm' -> Metrics
  | 't' -> Trace_dump { limit = Codec.r_int r }
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad request tag %C" c))

let w_request b { header = { trace; span; key }; op } =
  Codec.w_int b trace;
  Codec.w_int b span;
  Codec.w_option b Codec.w_int key;
  w_op b op

let r_request r =
  let trace = Codec.r_int r in
  let span = Codec.r_int r in
  let key = Codec.r_option r Codec.r_int in
  { header = { trace; span; key }; op = r_op r }

let w_error_code b = function
  | Bad_request -> Codec.w_char b 'b'
  | Rejected -> Codec.w_char b 'j'
  | Throttled -> Codec.w_char b 't'
  | Failed -> Codec.w_char b 'f'
  | Overloaded { retry_after_s } ->
    Codec.w_char b 'o';
    Codec.w_float b retry_after_s
  | Corrupt_frame -> Codec.w_char b 'c'

let r_error_code r =
  match Codec.r_char r with
  | 'b' -> Bad_request
  | 'j' -> Rejected
  | 't' -> Throttled
  | 'f' -> Failed
  | 'o' -> Overloaded { retry_after_s = Codec.r_float r }
  | 'c' -> Corrupt_frame
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad error tag %C" c))

let w_mpc_stats b (s : Stats.t) =
  Codec.w_int b s.p;
  Codec.w_int b s.initial_max;
  Codec.w_list b Stats.w_round_stats s.rounds;
  Codec.w_list b Stats.w_recovery s.recoveries

let r_mpc_stats r : Stats.t =
  let p = Codec.r_int r in
  let initial_max = Codec.r_int r in
  let rounds = Codec.r_list r Stats.r_round_stats in
  let recoveries = Codec.r_list r Stats.r_recovery in
  { p; initial_max; rounds; recoveries }

let w_pool_row b (name, in_use, idle) =
  Codec.w_string b name;
  Codec.w_int b in_use;
  Codec.w_int b idle

let r_pool_row r =
  let name = Codec.r_string r in
  let in_use = Codec.r_int r in
  (name, in_use, Codec.r_int r)

let w_server_stats b s =
  Codec.w_int b s.sessions;
  Codec.w_int b s.active_requests;
  Codec.w_int b s.executor_in_flight;
  Codec.w_int b s.pool_workers;
  Codec.w_int b s.plan_cache_size;
  Codec.w_int b s.plan_cache_hits;
  Codec.w_int b s.plan_cache_misses;
  Codec.w_list b w_pool_row s.handle_pools;
  Codec.w_int b s.requests_served;
  Codec.w_int b s.rejected;
  Codec.w_int b s.throttled;
  Codec.w_float b s.uptime_s;
  Codec.w_int b s.deduped;
  Codec.w_int b s.shed;
  Codec.w_int b s.reaped

let r_server_stats r =
  let sessions = Codec.r_int r in
  let active_requests = Codec.r_int r in
  let executor_in_flight = Codec.r_int r in
  let pool_workers = Codec.r_int r in
  let plan_cache_size = Codec.r_int r in
  let plan_cache_hits = Codec.r_int r in
  let plan_cache_misses = Codec.r_int r in
  let handle_pools = Codec.r_list r r_pool_row in
  let requests_served = Codec.r_int r in
  let rejected = Codec.r_int r in
  let throttled = Codec.r_int r in
  let uptime_s = Codec.r_float r in
  let deduped = Codec.r_int r in
  let shed = Codec.r_int r in
  let reaped = Codec.r_int r in
  {
    sessions;
    active_requests;
    executor_in_flight;
    pool_workers;
    plan_cache_size;
    plan_cache_hits;
    plan_cache_misses;
    handle_pools;
    requests_served;
    rejected;
    throttled;
    uptime_s;
    deduped;
    shed;
    reaped;
  }

let w_span_info b s =
  Codec.w_string b s.sp_name;
  Codec.w_string b s.sp_cat;
  Codec.w_int b s.sp_tid;
  Codec.w_float b s.sp_t;
  Codec.w_float b s.sp_dur

let r_span_info r =
  let sp_name = Codec.r_string r in
  let sp_cat = Codec.r_string r in
  let sp_tid = Codec.r_int r in
  let sp_t = Codec.r_float r in
  let sp_dur = Codec.r_float r in
  { sp_name; sp_cat; sp_tid; sp_t; sp_dur }

let w_response b = function
  | Hello_ok { server; version = v } ->
    Codec.w_char b 'H';
    Codec.w_string b server;
    Codec.w_int b v
  | Prepared { id; cached; atoms } ->
    Codec.w_char b 'P';
    Codec.w_int b id;
    Codec.w_bool b cached;
    Codec.w_int b atoms
  | Batch facts ->
    Codec.w_char b 'B';
    Codec.w_list b Codec.w_fact facts
  | Done { facts; stats } ->
    Codec.w_char b 'D';
    Codec.w_int b facts;
    Codec.w_option b w_mpc_stats stats
  | Ingested { added } ->
    Codec.w_char b 'G';
    Codec.w_int b added
  | Stats_reply s ->
    Codec.w_char b 'S';
    w_server_stats b s
  | Healthy -> Codec.w_char b 'O'
  | Error { code; message } ->
    Codec.w_char b 'E';
    w_error_code b code;
    Codec.w_string b message
  | Metrics_reply text ->
    Codec.w_char b 'M';
    Codec.w_string b text
  | Trace_reply spans ->
    Codec.w_char b 'T';
    Codec.w_list b w_span_info spans

let r_response r =
  match Codec.r_char r with
  | 'H' ->
    let server = Codec.r_string r in
    Hello_ok { server; version = Codec.r_int r }
  | 'P' ->
    let id = Codec.r_int r in
    let cached = Codec.r_bool r in
    Prepared { id; cached; atoms = Codec.r_int r }
  | 'B' -> Batch (Codec.r_list r Codec.r_fact)
  | 'D' ->
    let facts = Codec.r_int r in
    Done { facts; stats = Codec.r_option r r_mpc_stats }
  | 'G' -> Ingested { added = Codec.r_int r }
  | 'S' -> Stats_reply (r_server_stats r)
  | 'O' -> Healthy
  | 'E' ->
    let code = r_error_code r in
    Error { code; message = Codec.r_string r }
  | 'M' -> Metrics_reply (Codec.r_string r)
  | 'T' -> Trace_reply (Codec.r_list r r_span_info)
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad response tag %C" c))

let encode w v =
  let b = Codec.writer () in
  w b v;
  Codec.contents b

let decode rd s =
  let r = Codec.reader s in
  let v = rd r in
  Codec.r_end r;
  v

let op_to_string = encode w_op
let request_to_string = encode w_request
let request_of_string = decode r_request
let response_to_string = encode w_response
let response_of_string = decode r_response

(* Framed I/O. The frame header is 16 bytes: the payload length and a
   checksum of the payload, both 8-byte big-endian. The checksum is a
   63-bit FNV-style polynomial fold; multiplication wraps mod 2^63, and
   16777619 is odd, so any single-byte change at any position changes
   the digest — a chaos-proxy byte flip can never smuggle a
   valid-looking but different message past the decoder. A mismatch is
   indistinguishable from desync, so it is connection-fatal
   ([Codec.Corrupt]); the peer hangs up and a resilient client retries
   on a fresh connection. *)

exception Closed
exception Timed_out
exception Too_large of { len : int; limit : int }

let checksum s =
  let h = ref 0x100001b3 in
  for i = 0 to String.length s - 1 do
    h := (!h * 16777619) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

(* Block until [fd] is ready, or the absolute [deadline] passes. *)
let rec wait_fd fd ~for_read ~deadline =
  let timeout = deadline -. Unix.gettimeofday () in
  if timeout <= 0.0 then raise Timed_out;
  let rs, ws = if for_read then ([ fd ], []) else ([], [ fd ]) in
  match Unix.select rs ws [] timeout with
  | [], [], _ -> raise Timed_out
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    wait_fd fd ~for_read ~deadline

let wait_readable ?timeout_s fd =
  match timeout_s with
  | None ->
    let rec go () =
      match Unix.select [ fd ] [] [] (-1.0) with
      | [], _, _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  | Some s -> (
    let deadline = Unix.gettimeofday () +. s in
    try
      wait_fd fd ~for_read:true ~deadline;
      true
    with Timed_out -> false)

(* POSIX raises SIGPIPE on a write after the peer has shut its read
   side, and the default disposition terminates the process — the
   EPIPE handler below would never run. Ignored once, on the first
   write, so a vanished peer surfaces as [Closed] instead. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let rec write_all ?deadline fd s off len =
  Lazy.force sigpipe_ignored;
  if len > 0 then begin
    (match deadline with
    | Some d -> wait_fd fd ~for_read:false ~deadline:d
    | None -> ());
    match Unix.write_substring fd s off len with
    | n -> write_all ?deadline fd s (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise Closed
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all ?deadline fd s off len
  end

let read_all ?deadline fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then begin
      (match deadline with
      | Some d -> wait_fd fd ~for_read:true ~deadline:d
      | None -> ());
      match Unix.read fd buf off (len - off) with
      | 0 -> raise Closed
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let read_frame ?max_len ?deadline fd =
  let header = read_all ?deadline fd 16 in
  let r = Codec.reader header in
  let len = Codec.r_int r in
  let sum = Codec.r_int r in
  let limit = match max_len with Some m -> m | None -> max_frame in
  if len < 0 then
    raise (Codec.Corrupt (Printf.sprintf "negative frame length %d" len));
  if len > limit then raise (Too_large { len; limit });
  let payload = read_all ?deadline fd len in
  if checksum payload <> sum then
    raise
      (Codec.Corrupt
         (Printf.sprintf "frame checksum mismatch (%d bytes)" len));
  payload

let write_frame ?deadline fd payload =
  let b = Codec.writer () in
  Codec.w_int b (String.length payload);
  Codec.w_int b (checksum payload);
  let header = Codec.contents b in
  (* One buffer per frame so header and payload reach the socket in a
     single write when it is not full — sessions interleave whole
     frames, never partial ones. *)
  let msg = header ^ payload in
  write_all ?deadline fd msg 0 (String.length msg)

let read_request ?max_len ?deadline fd =
  request_of_string (read_frame ?max_len ?deadline fd)

let write_request ?deadline fd req =
  write_frame ?deadline fd (request_to_string req)

let read_response ?max_len ?deadline fd =
  response_of_string (read_frame ?max_len ?deadline fd)

let write_response ?deadline fd resp =
  write_frame ?deadline fd (response_to_string resp)
