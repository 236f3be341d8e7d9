(* lamp.serve: wire codecs, resource pool, quotas, plan cache, and the
   headline property — a loopback server answers every query with
   results (and MPC statistics) bit-identical to the direct library
   call, on both execution backends. *)

open Lamp_relational
module Codec = Lamp_jobs.Codec
module Executor = Lamp_runtime.Executor
module Pool = Lamp_runtime.Pool
module Eval = Lamp_cq.Eval
module Parser = Lamp_cq.Parser
module Stats = Lamp_mpc.Stats
module Wire = Lamp_serve.Wire
module Rpool = Lamp_serve.Rpool
module Quota = Lamp_serve.Quota
module Cache = Lamp_serve.Cache
module Server = Lamp_serve.Server
module Client = Lamp_serve.Client
module Resilient = Lamp_serve.Resilient

let instance = Alcotest.testable Instance.pp Instance.equal
let stats_t = Alcotest.testable Stats.pp (fun (a : Stats.t) b -> a = b)

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)

let sample_stats : Stats.t =
  {
    p = 4;
    initial_max = 7;
    rounds = [ { max_received = 3; total_received = 9 } ];
    recoveries =
      [
        {
          round = 1;
          crashed = 1;
          replayed = 5;
          retransmitted = 2;
          duplicates = 1;
          retries = 0;
          speculated = 1;
        };
      ];
  }

let sample_facts =
  [
    Fact.of_list "R" [ Value.int 1; Value.str "a" ];
    Fact.of_list "S" [];
    Fact.of_list "T" [ Value.str "x\000y" ];
  ]

let request ?(trace = 0) ?(span = 0) ?key op : Wire.request =
  { header = { trace; span; key }; op }

let sample_ops : Wire.op list =
  [
    Hello { client = "c1"; version = Wire.protocol_version };
    Prepare { instance = "main"; query = "H(x) <- R(x,y)" };
    Execute { instance = "main"; plan = Id 42; mode = Local };
    Execute
      { instance = "m"; plan = Adhoc "H() <- R(x,x)"; mode = Hypercube { p = 8 } };
    Execute { instance = "m"; plan = Id 1; mode = Repartition { p = 3 } };
    Execute { instance = "m"; plan = Id 1; mode = Grid { p = 9 } };
    Ingest { instance = "main"; facts = sample_facts };
    Ingest { instance = "empty"; facts = [] };
    Stats;
    Health;
    Metrics;
    Trace_dump { limit = 128 };
  ]

(* Every op under a bare header and under one carrying trace ids and a
   key, so the codec tests cover both header layouts for every op. *)
let sample_requests =
  List.concat_map
    (fun op -> [ request op; request ~trace:0x1234 ~span:(-7) ~key:17 op ])
    sample_ops

let sample_server_stats : Wire.server_stats =
  {
    sessions = 3;
    active_requests = 1;
    executor_in_flight = 0;
    pool_workers = 2;
    plan_cache_size = 4;
    plan_cache_hits = 99;
    plan_cache_misses = 1;
    handle_pools = [ ("main", 1, 2) ];
    requests_served = 100;
    rejected = 2;
    throttled = 1;
    uptime_s = 12.5;
    deduped = 4;
    shed = 6;
    reaped = 1;
  }

let sample_responses : Wire.response list =
  [
    Hello_ok { server = "lamp"; version = 1 };
    Prepared { id = 7; cached = true; atoms = 3 };
    Batch sample_facts;
    Batch [];
    Done { facts = 12; stats = None };
    Done { facts = 0; stats = Some sample_stats };
    Ingested { added = 5 };
    Stats_reply sample_server_stats;
    Healthy;
    Error { code = Bad_request; message = "nope" };
    Error { code = Rejected; message = "" };
    Error { code = Throttled; message = "slow down" };
    Error { code = Failed; message = "engine exploded" };
    Error { code = Overloaded { retry_after_s = 0.25 }; message = "busy" };
    Error { code = Corrupt_frame; message = "checksum mismatch" };
    Metrics_reply "# TYPE lamp_serve_requests counter\n# EOF\n";
    Trace_reply
      [
        {
          sp_name = "serve.request";
          sp_cat = "serve";
          sp_tid = 0;
          sp_t = 0.25;
          sp_dur = 0.125;
        };
      ];
    Trace_reply [];
  ]

let test_wire_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request round-trips" true
        (Wire.request_of_string (Wire.request_to_string req) = req))
    sample_requests;
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response round-trips" true
        (Wire.response_of_string (Wire.response_to_string resp) = resp))
    sample_responses

let test_wire_hostile () =
  (* Every strict prefix of every encoding must raise Corrupt; so must
     a bad leading tag. Decoders never escape with another exception. *)
  let check_prefixes enc decode =
    for len = 0 to String.length enc - 1 do
      match decode (String.sub enc 0 len) with
      | _ -> Alcotest.failf "prefix of length %d decoded" len
      | exception Codec.Corrupt _ -> ()
      | exception e ->
        Alcotest.failf "prefix of length %d escaped as %s" len
          (Printexc.to_string e)
    done
  in
  List.iter
    (fun req ->
      check_prefixes (Wire.request_to_string req) Wire.request_of_string)
    sample_requests;
  List.iter
    (fun resp ->
      check_prefixes (Wire.response_to_string resp) Wire.response_of_string)
    sample_responses;
  (try
     let enc = Wire.request_to_string (request Stats) in
     ignore
       (Wire.request_of_string
          (String.sub enc 0 (String.length enc - 1) ^ "\255"));
     Alcotest.fail "bad op tag must raise"
   with Codec.Corrupt _ -> ());
  (* Trailing bytes are schema drift, not silence. *)
  try
    ignore
      (Wire.response_of_string (Wire.response_to_string Wire.Healthy ^ "x"));
    Alcotest.fail "trailing bytes must raise"
  with Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Checksummed framing                                                 *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = String.init 3000 (fun i -> Char.chr (i mod 256)) in
      Wire.write_frame a payload;
      Alcotest.(check string) "payload round-trips" payload (Wire.read_frame b);
      Wire.write_frame a "";
      Alcotest.(check string) "empty frame round-trips" "" (Wire.read_frame b))

let test_frame_checksum () =
  (* Flip one byte of the payload in flight: the checksum catches it
     and the reader raises Corrupt instead of decoding garbage. *)
  with_socketpair (fun a b ->
      let payload = "hello, hostile network" in
      Wire.write_frame a payload;
      (* Re-read what was sent, corrupt the last byte, re-send. *)
      let frame = Bytes.create (16 + String.length payload) in
      let n = Unix.read b frame 0 (Bytes.length frame) in
      Alcotest.(check int) "whole frame read" (Bytes.length frame) n;
      let j = Bytes.length frame - 1 in
      Bytes.set frame j (Char.chr (Char.code (Bytes.get frame j) lxor 0x20));
      ignore (Unix.write a frame 0 (Bytes.length frame));
      match Wire.read_frame b with
      | _ -> Alcotest.fail "corrupted frame must not decode"
      | exception Codec.Corrupt _ -> ())

let test_frame_too_large () =
  with_socketpair (fun a b ->
      Wire.write_frame a (String.make 100 'x');
      (* The length check fires before any payload allocation. *)
      match Wire.read_frame ~max_len:64 b with
      | _ -> Alcotest.fail "oversized frame must be refused"
      | exception Wire.Too_large { len; limit } ->
        Alcotest.(check int) "reported length" 100 len;
        Alcotest.(check int) "reported limit" 64 limit)

let test_frame_deadline () =
  with_socketpair (fun _a b ->
      let t0 = Unix.gettimeofday () in
      match Wire.read_frame ~deadline:(t0 +. 0.05) b with
      | _ -> Alcotest.fail "nothing was sent"
      | exception Wire.Timed_out ->
        Alcotest.(check bool) "deadline honoured promptly" true
          (Unix.gettimeofday () -. t0 < 2.0))

let test_frame_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read_frame b with
      | _ -> Alcotest.fail "peer is gone"
      | exception Wire.Closed -> ())

(* ------------------------------------------------------------------ *)
(* Resource pool                                                       *)

let test_rpool_reuse_and_dispose () =
  let live = ref 0 in
  let built = ref 0 in
  let p =
    Rpool.create ~max_size:2
      ~dispose:(fun _ -> decr live)
      (fun () ->
        incr live;
        incr built;
        !built)
  in
  let first = Rpool.use p (fun r -> r) in
  let second = Rpool.use p (fun r -> r) in
  Alcotest.(check int) "sequential uses share one resource" first second;
  Alcotest.(check int) "one allocation" 1 (Rpool.created p);
  Alcotest.(check int) "one idle" 1 (Rpool.idle p);
  (* A raising user poisons its resource: disposed, not reused. *)
  (try Rpool.use p (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "poisoned resource disposed" 0 (Rpool.size p);
  Alcotest.(check int) "live tracks dispose" 0 !live;
  let third = Rpool.use p (fun r -> r) in
  Alcotest.(check bool) "fresh resource after poison" true (third > second)

let test_rpool_validation () =
  let version = ref 0 in
  let p =
    Rpool.create ~max_size:2
      ~validate:(fun (v, _) -> v = !version)
      (fun () -> (!version, ()))
  in
  Rpool.use p ignore;
  Alcotest.(check int) "handle pooled" 1 (Rpool.size p);
  incr version;
  Rpool.use p (fun (v, ()) ->
      Alcotest.(check int) "stale handle replaced on checkout" 1 v);
  Alcotest.(check int) "replacement, not accumulation" 1 (Rpool.size p);
  Alcotest.(check int) "two allocations total" 2 (Rpool.created p)

let test_rpool_blocks_at_capacity () =
  let p = Rpool.create ~max_size:1 (fun () -> ()) in
  let order = Queue.create () in
  let m = Mutex.create () in
  let push x = Mutex.protect m (fun () -> Queue.push x order) in
  let holder =
    Thread.create
      (fun () ->
        Rpool.use p (fun () ->
            push `Held;
            Thread.delay 0.05;
            push `Releasing))
      ()
  in
  Thread.delay 0.02;
  Rpool.use p (fun () -> push `Second);
  Thread.join holder;
  Alcotest.(check bool)
    "second use waited for the release" true
    (List.of_seq (Queue.to_seq order) = [ `Held; `Releasing; `Second ])

let test_rpool_trim_and_drain () =
  let live = ref 0 in
  let p =
    Rpool.create ~max_size:4
      ~dispose:(fun _ -> decr live)
      (fun () ->
        incr live;
        ref ())
  in
  (* Force several concurrent checkouts so the pool grows. *)
  let barrier = Mutex.create () in
  Mutex.lock barrier;
  let ts =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            Rpool.use p (fun _ ->
                Mutex.lock barrier;
                Mutex.unlock barrier))
          ())
  in
  while Rpool.in_use p < 3 do
    Thread.delay 0.005
  done;
  Mutex.unlock barrier;
  List.iter Thread.join ts;
  Alcotest.(check int) "pool grew to demand" 3 (Rpool.size p);
  Rpool.trim p ~keep:1;
  Alcotest.(check int) "trim evicts idle beyond keep" 1 (Rpool.size p);
  Alcotest.(check int) "dispose ran on eviction" 1 !live;
  Rpool.drain p;
  Alcotest.(check int) "drain empties the pool" 0 (Rpool.size p);
  Alcotest.(check int) "every resource disposed" 0 !live;
  try
    Rpool.use p ignore;
    Alcotest.fail "use after drain must raise"
  with Rpool.Draining -> ()

let test_rpool_drain_races_checkout () =
  (* Drain while a checkout is in flight: the drain must wait for the
     borrowed resource to come back, then dispose it — never dispose a
     resource out from under its user, never leak it. *)
  let live = ref 0 in
  let p =
    Rpool.create ~max_size:2
      ~dispose:(fun _ -> decr live)
      (fun () ->
        incr live;
        ref ())
  in
  let holding = Semaphore.Binary.make false in
  let release = Semaphore.Binary.make false in
  let user =
    Thread.create
      (fun () ->
        Rpool.use p (fun r ->
            Semaphore.Binary.release holding;
            (* Wait until the main thread has started the drain. *)
            Semaphore.Binary.acquire release;
            (* The resource must still be alive while borrowed. *)
            !r))
      ()
  in
  Semaphore.Binary.acquire holding;
  Alcotest.(check int) "resource checked out" 1 (Rpool.in_use p);
  let drainer = Thread.create (fun () -> Rpool.drain p) () in
  Thread.delay 0.02;
  Semaphore.Binary.release release;
  Thread.join user;
  Thread.join drainer;
  Alcotest.(check int) "drain disposed the returned resource" 0 !live;
  Alcotest.(check int) "nothing in use after the race" 0 (Rpool.in_use p);
  (* A checkout racing the drain loses cleanly: Draining, not a hang. *)
  try
    Rpool.use p ignore;
    Alcotest.fail "post-drain use must raise"
  with Rpool.Draining -> ()

(* ------------------------------------------------------------------ *)
(* Quota                                                               *)

let test_quota_bucket () =
  let now = ref 0.0 in
  let q = Quota.create ~clock:(fun () -> !now) ~rate:1.0 ~burst:2.0 () in
  Alcotest.(check bool) "burst 1" true (Quota.try_take q);
  Alcotest.(check bool) "burst 2" true (Quota.try_take q);
  Alcotest.(check bool) "bucket empty" false (Quota.try_take q);
  now := 0.5;
  Alcotest.(check bool) "half a token is not one" false (Quota.try_take q);
  now := 1.5;
  Alcotest.(check bool) "refilled at rate" true (Quota.try_take q);
  now := 100.0;
  Alcotest.(check (float 0.001)) "refill caps at burst" 2.0 (Quota.tokens q);
  now := 99.0;
  Alcotest.(check bool) "clock going backwards never debits" true
    (Quota.tokens q >= 2.0)

let test_quota_clock_jumps () =
  let now = ref 0.0 in
  let q = Quota.create ~clock:(fun () -> !now) ~rate:1.0 ~burst:4.0 () in
  Alcotest.(check bool) "take" true (Quota.try_take q);
  Alcotest.(check bool) "take" true (Quota.try_take q);
  (* A huge backwards step (ntp slew, VM restore) grants nothing and
     freezes nothing: refills resume from the new mark immediately. *)
  now := -1.0e6;
  Alcotest.(check (float 0.001)) "backwards jump refills nothing" 2.0
    (Quota.tokens q);
  now := -1.0e6 +. 1.0;
  Alcotest.(check (float 0.001)) "refill resumes after resync" 3.0
    (Quota.tokens q);
  (* A huge forward jump clamps at burst — no free burst beyond it,
     no accumulation into a later debit. *)
  now := 1.0e15;
  Alcotest.(check (float 0.001)) "forward jump clamps at burst" 4.0
    (Quota.tokens q);
  for _ = 1 to 4 do
    Alcotest.(check bool) "burst spends" true (Quota.try_take q)
  done;
  Alcotest.(check bool) "nothing beyond burst" false (Quota.try_take q);
  (* Even an infinite clock cannot overflow the bucket, and a nan
     clock neither poisons the mark nor grants tokens. *)
  now := infinity;
  Alcotest.(check (float 0.001)) "infinite clock clamps" 4.0 (Quota.tokens q);
  now := nan;
  let t = Quota.tokens q in
  Alcotest.(check bool) "nan clock yields a finite count" true
    (Float.is_finite t && t <= 4.0)

(* ------------------------------------------------------------------ *)
(* Dedup window                                                        *)

module Dedup = Lamp_serve.Dedup

let test_dedup_replay_and_abort () =
  let d = Dedup.create ~capacity:4 in
  (* First acquire claims the execution; commit records it; the retry
     replays without running. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.commit d tok [ Wire.Ingested { added = 2 } ]
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run");
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:11 with
  | `Replay [ Wire.Ingested { added } ] ->
    Alcotest.(check int) "replayed response" 2 added
  | `Replay _ -> Alcotest.fail "wrong recorded responses"
  | `Run _ | `Mismatch -> Alcotest.fail "committed key must replay");
  Alcotest.(check int) "replay counted" 1 (Dedup.hits d);
  (* Same key, different client: a distinct entry. *)
  (match Dedup.acquire d ~client:"other" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.abort d tok
  | `Replay _ | `Mismatch ->
    Alcotest.fail "client names partition the window");
  (* An aborted execution leaves no record: the retry re-executes. *)
  (match Dedup.acquire d ~client:"other" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.commit d tok [ Wire.Healthy ]
  | `Replay _ | `Mismatch -> Alcotest.fail "aborted key must re-run");
  Alcotest.(check int) "two finished entries held" 2 (Dedup.length d)

let test_dedup_digest_mismatch () =
  let d = Dedup.create ~capacity:4 in
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:100 with
  | `Run tok -> Dedup.commit d tok [ Wire.Ingested { added = 5 } ]
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run");
  (* The same key claimed for different request bytes — a restarted
     client reusing its counter — must never see the recorded answer. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:200 with
  | `Mismatch -> ()
  | `Replay _ -> Alcotest.fail "foreign request must not replay"
  | `Run _ -> Alcotest.fail "colliding key must not claim the entry");
  (* The mismatch neither evicted nor corrupted the entry: the real
     retry still replays. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:100 with
  | `Replay [ Wire.Ingested { added = 5 } ] -> ()
  | _ -> Alcotest.fail "original record must survive a mismatch");
  (* A pending entry rejects a different digest without blocking. *)
  match Dedup.acquire d ~client:"c" ~key:2 ~digest:100 with
  | `Run tok -> (
    (match Dedup.acquire d ~client:"c" ~key:2 ~digest:300 with
    | `Mismatch -> ()
    | `Replay _ | `Run _ -> Alcotest.fail "pending mismatch must reject");
    Dedup.abort d tok)
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run"

let test_dedup_eviction () =
  let d = Dedup.create ~capacity:2 in
  let finish key =
    match Dedup.acquire d ~client:"c" ~key ~digest:key with
    | `Run tok -> Dedup.commit d tok [ Wire.Healthy ]
    | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run"
  in
  finish 1;
  finish 2;
  finish 3;
  Alcotest.(check int) "window bounded" 2 (Dedup.length d);
  (* Key 1 was evicted (oldest finished): a retry re-executes — the
     window is a bounded at-most-once guarantee, not an infinite log. *)
  match Dedup.acquire d ~client:"c" ~key:1 ~digest:1 with
  | `Run tok -> Dedup.abort d tok
  | `Replay _ | `Mismatch -> Alcotest.fail "evicted key must run again"

let test_dedup_concurrent_retry_blocks () =
  let d = Dedup.create ~capacity:4 in
  let first_running = Semaphore.Binary.make false in
  let release = Semaphore.Binary.make false in
  let replayed = ref [] in
  let runner =
    Thread.create
      (fun () ->
        match Dedup.acquire d ~client:"c" ~key:9 ~digest:9 with
        | `Run tok ->
          Semaphore.Binary.release first_running;
          Semaphore.Binary.acquire release;
          Dedup.commit d tok [ Wire.Ingested { added = 7 } ]
        | `Replay _ | `Mismatch -> Alcotest.fail "first acquire must run")
      ()
  in
  Semaphore.Binary.acquire first_running;
  let retrier =
    Thread.create
      (fun () ->
        (* The key is pending: this blocks until the commit, then
           replays — never a second execution. *)
        match Dedup.acquire d ~client:"c" ~key:9 ~digest:9 with
        | `Replay rs -> replayed := rs
        | `Run _ | `Mismatch ->
          Alcotest.fail "concurrent retry must not re-run")
      ()
  in
  Thread.delay 0.02;
  Semaphore.Binary.release release;
  Thread.join runner;
  Thread.join retrier;
  match !replayed with
  | [ Wire.Ingested { added = 7 } ] -> ()
  | _ -> Alcotest.fail "retry saw the committed record"

(* ------------------------------------------------------------------ *)
(* Plan cache (LRU)                                                    *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  let build v () = v in
  Alcotest.(check (pair int bool)) "miss builds" (1, false)
    (Cache.find_or_add c "a" (build 1));
  Alcotest.(check (pair int bool)) "hit returns cached" (1, true)
    (Cache.find_or_add c "a" (build 99));
  ignore (Cache.find_or_add c "b" (build 2));
  (* Touch "a" so "b" is the LRU entry, then overflow. *)
  ignore (Cache.find c "a");
  ignore (Cache.find_or_add c "c" (build 3));
  Alcotest.(check bool) "LRU entry evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "recent entry survives" true (Cache.find c "a" = Some 1);
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "evictions counted" 1 (Cache.evictions c);
  let dropped = Cache.remove_if c (fun k -> k = "a") in
  Alcotest.(check int) "remove_if reports drops" 1 dropped;
  Alcotest.(check bool) "invalidated" true (Cache.find c "a" = None);
  Alcotest.(check bool) "hits and misses tracked" true
    (Cache.hits c > 0 && Cache.misses c > 0)

(* ------------------------------------------------------------------ *)
(* Loopback server: equivalence with the library                       *)

(* A seeded instance rich enough for every query family: binary R/S/T
   for the join/triangle queries, E for the single-edge-relation ones,
   and loops R(x,x) so the fig-1 boolean queries are satisfiable. *)
let seed_data =
  let facts = ref [] in
  let add f = facts := f :: !facts in
  for i = 0 to 19 do
    add (Fact.of_list "R" [ Value.int i; Value.int ((i + 1) mod 20) ]);
    add (Fact.of_list "S" [ Value.int i; Value.int ((i + 3) mod 20) ]);
    add (Fact.of_list "T" [ Value.int ((i * 7) mod 20); Value.int i ]);
    add (Fact.of_list "E" [ Value.int i; Value.int ((i + 1) mod 20) ]);
    add (Fact.of_list "E" [ Value.int i; Value.int ((i * 3) mod 20) ]);
    add (Fact.of_list "T" [ Value.int i ]);
    add (Fact.of_list "S" [ Value.int i ])
  done;
  add (Fact.of_list "R" [ Value.int 5; Value.int 5 ]);
  add (Fact.of_list "R" [ Value.int 12; Value.int 12 ]);
  Instance.of_facts !facts

(* fig 1 (Example 4.11) and the e1–e5 query families, as wire text. *)
let fig1_queries =
  [
    ("fig1 q1", "H() <- S(x), R(x,x), T(x)");
    ("fig1 q2", "H() <- R(x,x), T(x)");
    ("fig1 q3", "H() <- S(x), R(x,y), T(y)");
    ("fig1 q4", "H() <- R(x,y), T(y)");
  ]

let engine_queries =
  [
    ("join", "H(x,y,z) <- R(x,y), S(y,z)");
    ("triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    ("two-path", "H(x,z) <- E(x,y), E(y,z)");
    ( "distinct triangles",
      "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z" );
    ("open triangle", "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  ]

let sock_counter = ref 0

let with_server ?config backend f =
  let executor, cleanup =
    match backend with
    | `Seq -> (Executor.sequential, ignore)
    | `Pool n ->
      let p = Pool.create ~domains:n () in
      (Executor.pool p, fun () -> Pool.shutdown p)
  in
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let server = Server.create ?config ~executor () in
  Server.add_instance server ~name:"main" seed_data;
  Server.listen_unix server ~path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      cleanup ();
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server ~executor ~path)

let with_client path f =
  let c = Client.connect_unix ~path () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let encode_instance i =
  let w = Codec.writer () in
  Codec.w_instance w i;
  Codec.contents w

let check_bit_identical name expected got =
  Alcotest.check instance name expected got;
  Alcotest.(check bool)
    (name ^ ": canonical encodings agree") true
    (String.equal (encode_instance expected) (encode_instance got))

let run_equivalence backend () =
  with_server backend (fun server ~executor ~path ->
      ignore server;
      with_client path (fun c ->
          ignore (Client.hello ~client:"equiv" c);
          (* Local mode against Cq.Eval, ad-hoc and prepared. *)
          List.iter
            (fun (name, qtext) ->
              let expected = Eval.eval (Parser.query qtext) seed_data in
              let got, stats =
                Client.execute c ~instance:"main" (Adhoc qtext)
              in
              check_bit_identical (name ^ " adhoc") expected got;
              Alcotest.(check bool) (name ^ ": local has no MPC stats") true
                (stats = None);
              let prepared = Client.prepare c ~instance:"main" ~query:qtext in
              Alcotest.(check bool)
                (name ^ ": adhoc warmed the plan cache") true prepared.cached;
              let got_id, _ =
                Client.execute c ~instance:"main" (Id prepared.id)
              in
              check_bit_identical (name ^ " by plan id") expected got_id)
            (fig1_queries @ engine_queries);
          (* MPC modes: result and Stats.t equal the library call. *)
          let hypercube_q = "H(x,y,z) <- R(x,y), S(y,z), T(z,x)" in
          let expected, estats, _shares =
            Lamp_mpc.Hypercube.run ~executor ~p:4
              (Parser.query hypercube_q) seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Hypercube { p = 4 })
              (Adhoc hypercube_q)
          in
          check_bit_identical "hypercube result" expected got;
          Alcotest.(check (option stats_t))
            "hypercube stats" (Some estats) gstats;
          let expected, estats =
            Lamp_mpc.Repartition_join.run ~executor ~p:3 seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Repartition { p = 3 })
              (Adhoc "H() <- R(x,y)")
          in
          check_bit_identical "repartition result" expected got;
          Alcotest.(check (option stats_t))
            "repartition stats" (Some estats) gstats;
          let expected, estats =
            Lamp_mpc.Grid_join.run ~executor ~p:4 seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Grid { p = 4 })
              (Adhoc "H() <- R(x,y)")
          in
          check_bit_identical "grid result" expected got;
          Alcotest.(check (option stats_t)) "grid stats" (Some estats) gstats))

let test_equivalence_seq = run_equivalence `Seq
let test_equivalence_pool = run_equivalence (`Pool 2)

let test_prepare_cache_and_ids () =
  with_server `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          let q = "H(x,z) <- E(x,y), E(y,z)" in
          let p1 = Client.prepare c ~instance:"main" ~query:q in
          Alcotest.(check bool) "first prepare compiles" false p1.cached;
          let p2 = Client.prepare c ~instance:"main" ~query:q in
          Alcotest.(check bool) "second prepare hits" true p2.cached;
          Alcotest.(check int) "same plan id" p1.id p2.id;
          Alcotest.(check int) "two join steps" 2 p1.atoms;
          (* Another connection shares the compiled plan. *)
          with_client path (fun c2 ->
              let p3 = Client.prepare c2 ~instance:"main" ~query:q in
              Alcotest.(check bool) "cache is cross-session" true p3.cached;
              Alcotest.(check int) "same id cross-session" p1.id p3.id);
          let s = Server.stats server in
          Alcotest.(check bool) "stats expose cache traffic" true
            (s.plan_cache_hits >= 2 && s.plan_cache_misses >= 1)))

let test_ingest_invalidation () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          let q = "H(x,y,z) <- R(x,y), S(y,z)" in
          let before, _ = Client.execute c ~instance:"main" (Adhoc q) in
          let fresh =
            [
              Fact.of_list "R" [ Value.int 100; Value.int 101 ];
              Fact.of_list "S" [ Value.int 101; Value.int 102 ];
            ]
          in
          let added = Client.ingest c ~instance:"main" fresh in
          Alcotest.(check int) "both facts were new" 2 added;
          Alcotest.(check int) "re-ingest adds nothing" 0
            (Client.ingest c ~instance:"main" fresh);
          let updated = Instance.union seed_data (Instance.of_facts fresh) in
          let expected = Eval.eval (Parser.query q) updated in
          let got, _ = Client.execute c ~instance:"main" (Adhoc q) in
          check_bit_identical "post-ingest result" expected got;
          Alcotest.(check bool) "ingest reached the result" true
            (Instance.cardinal got > Instance.cardinal before)))

let test_admission_reject () =
  let config = { Server.default_config with max_inflight = 0 } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          (* Health and stats bypass admission; engine work does not. *)
          Alcotest.(check bool) "health is always on" true (Client.health c);
          match Client.execute c ~instance:"main" (Adhoc "H() <- R(x,y)") with
          | _ -> Alcotest.fail "full server must fast-reject"
          | exception Client.Server_error (Rejected, _) -> ()))

let test_quota_throttle () =
  let config = { Server.default_config with quota = Some (0.001, 2.0) } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"greedy" c);
          let q = "H() <- R(x,y)" in
          ignore (Client.execute c ~instance:"main" (Adhoc q));
          ignore (Client.execute c ~instance:"main" (Adhoc q));
          (match Client.execute c ~instance:"main" (Adhoc q) with
          | _ -> Alcotest.fail "burst exhausted, must throttle"
          | exception Client.Server_error (Throttled, _) -> ());
          (* Another client identity has its own bucket. *)
          with_client path (fun c2 ->
              ignore (Client.hello ~client:"modest" c2);
              ignore (Client.execute c2 ~instance:"main" (Adhoc q)))))

let test_errors_and_health () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          (match Client.execute c ~instance:"nope" (Adhoc "H() <- R(x,y)") with
          | _ -> Alcotest.fail "unknown instance"
          | exception Client.Server_error (Bad_request, _) -> ());
          (match Client.execute c ~instance:"main" (Adhoc "H( <- R(x") with
          | _ -> Alcotest.fail "parse error"
          | exception Client.Server_error (Bad_request, _) -> ());
          (match Client.execute c ~instance:"main" (Id 424242) with
          | _ -> Alcotest.fail "unknown plan id"
          | exception Client.Server_error (Bad_request, _) -> ());
          (* The session survives every error above. *)
          Alcotest.(check bool) "still healthy" true (Client.health c)))

(* A raw session: one hand-built request frame per call, the first
   reply frame back. *)
let with_raw path f =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_UNIX path);
      f (fun req ->
          Wire.write_request fd req;
          Wire.read_response fd))

let raw_hello ?key ?(version = Wire.protocol_version) () =
  request ?key (Hello { client = "raw"; version })

let test_hello_checks_version () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_raw path (fun send ->
          (* One dialect: any other version is refused by name, and the
             refusal keeps the session open for a correct hello. *)
          List.iter
            (fun version ->
              match send (raw_hello ~version ()) with
              | Error { code = Bad_request; message } ->
                let words =
                  String.split_on_char ' '
                    (String.map (function ',' -> ' ' | c -> c) message)
                in
                let names v = List.mem (string_of_int v) words in
                Alcotest.(check bool) "refusal names both versions" true
                  (names version && names Wire.protocol_version)
              | _ -> Alcotest.failf "version %d must be refused" version)
            [ Wire.protocol_version - 1; Wire.protocol_version + 1 ];
          match send (raw_hello ()) with
          | Hello_ok { version; _ } ->
            Alcotest.(check int) "session survives" Wire.protocol_version
              version
          | _ -> Alcotest.fail "expected Hello_ok"))

let test_keyed_hello_refused () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_raw path (fun send ->
          (match send (raw_hello ~key:1 ()) with
          | Error { code = Bad_request; _ } -> ()
          | _ -> Alcotest.fail "a keyed Hello must be refused");
          Alcotest.(check bool) "session survives" true
            (send (request Health) = Healthy)))

(* ------------------------------------------------------------------ *)
(* Hostile-network hardening                                           *)

let test_keyed_ingest_applies_once () =
  with_server `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"keyed" c);
          let fresh =
            [
              Fact.of_list "R" [ Value.int 500; Value.int 501 ];
              Fact.of_list "S" [ Value.int 501; Value.int 502 ];
            ]
          in
          let added = Client.ingest ~key:42 c ~instance:"main" fresh in
          Alcotest.(check int) "first keyed ingest applies" 2 added;
          (* The retry path: same client, same key. The server replays
             the recorded response — [added] repeats the original count
             instead of the 0 a re-execution would report. *)
          let again = Client.ingest ~key:42 c ~instance:"main" fresh in
          Alcotest.(check int) "replay repeats the original answer" 2 again;
          let s = Server.stats server in
          Alcotest.(check int) "dedup hit surfaced in stats" 1 s.deduped;
          (* A fresh key really re-executes (and finds nothing new). *)
          Alcotest.(check int) "fresh key re-executes" 0
            (Client.ingest ~key:43 c ~instance:"main" fresh);
          (* Replays survive a reconnect: the window is keyed by the
             hello client name, not the socket. *)
          with_client path (fun c2 ->
              ignore (Client.hello ~client:"keyed" c2);
              Alcotest.(check int) "replay across connections" 2
                (Client.ingest ~key:42 c2 ~instance:"main" fresh);
              (* A key reused for a *different* request — a restarted
                 client whose counter started over — is refused, never
                 answered with the recorded response of the other op. *)
              let other =
                [ Fact.of_list "R" [ Value.int 700; Value.int 701 ] ]
              in
              (match Client.ingest ~key:42 c2 ~instance:"main" other with
              | _ -> Alcotest.fail "key reuse must be refused"
              | exception Client.Server_error (Bad_request, _) -> ());
              (* The refusal applied nothing and kept the session. *)
              Alcotest.(check int) "refused ingest did not apply" 1
                (Client.ingest ~key:44 c2 ~instance:"main" other))))

let test_dedup_digest_skips_header () =
  (* A retry re-sends the key and the op under a fresh span id (and,
     after a reconnect, a fresh trace id): the dedup digest covers the
     op alone, so the second frame is a replay, not a Mismatch. *)
  with_server `Seq (fun server ~executor:_ ~path ->
      with_raw path (fun send ->
          ignore (send (raw_hello ()));
          let op =
            Wire.Ingest
              {
                instance = "main";
                facts = [ Fact.of_list "R" [ Value.int 600; Value.int 601 ] ];
              }
          in
          let first = send (request ~trace:1 ~span:1 ~key:9 op) in
          let retry = send (request ~trace:2 ~span:5 ~key:9 op) in
          Alcotest.(check bool) "first frame applies" true
            (first = Ingested { added = 1 });
          Alcotest.(check bool) "retry is answered by replay" true
            (retry = first);
          Alcotest.(check int) "one dedup hit" 1 (Server.stats server).deduped))

let test_dedup_byte_cap () =
  (* Recorded dedup entries are size-capped: a keyed execute whose
     result stream encodes past [dedup_max_bytes] completes but is not
     remembered, so its retry re-executes (yielding the same answer —
     execute is read-only) instead of pinning the result set in the
     window. Small ops still replay. *)
  let config = { Server.default_config with dedup_max_bytes = 64 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"capped" c);
          let q = "H(x,y) <- E(x,y)" in
          let first, _ = Client.execute ~key:1 c ~instance:"main" (Adhoc q) in
          Alcotest.(check bool) "result is past the cap" true
            (Instance.cardinal first > 0);
          let again, _ = Client.execute ~key:1 c ~instance:"main" (Adhoc q) in
          check_bit_identical "re-execution matches" first again;
          let s = Server.stats server in
          Alcotest.(check int) "oversized entry was not recorded" 0 s.deduped;
          (* A compact keyed op under the same cap still replays. *)
          let fresh = [ Fact.of_list "R" [ Value.int 800; Value.int 801 ] ] in
          Alcotest.(check int) "small ingest applies" 1
            (Client.ingest ~key:2 c ~instance:"main" fresh);
          Alcotest.(check int) "small ingest replays" 1
            (Client.ingest ~key:2 c ~instance:"main" fresh);
          Alcotest.(check int) "replay surfaced in stats" 1
            (Server.stats server).deduped))

(* A hand-rolled wire-speaking server: answers hello, then drops the
   connection on the first ingest it ever sees and serves every later
   one — the shape of "the request may have applied, the answer is
   gone". *)
let test_resilient_retries_dropped_ingest () =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_fake_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind srv (ADDR_UNIX path);
  Unix.listen srv 4;
  let stop = Atomic.make false in
  let ingests_seen = Atomic.make 0 in
  let dropped_once = Atomic.make false in
  let serve_conn fd =
    let rec loop () =
      match (Wire.read_request fd).op with
      | Hello { version; _ } ->
        Wire.write_response fd (Hello_ok { server = "fake"; version });
        loop ()
      | Ingest _ ->
        Atomic.incr ingests_seen;
        if Atomic.compare_and_set dropped_once false true then
          (* Drop mid-op: the client cannot know whether it applied. *)
          Unix.close fd
        else begin
          Wire.write_response fd (Ingested { added = 1 });
          loop ()
        end
      | _ ->
        Wire.write_response fd Healthy;
        loop ()
    in
    try loop () with
    | Wire.Closed | Unix.Unix_error _ | Lamp_jobs.Codec.Corrupt _ -> (
      try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec go () =
          if not (Atomic.get stop) then begin
            (match Unix.select [ srv ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ -> (
              match Unix.accept srv with
              | fd, _ -> ignore (Thread.create serve_conn fd)
              | exception Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ());
            go ()
          end
        in
        go ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* The ingest's connection drops after the send; the wrapper
         retries it under the same key on a fresh connection, and the
         op completes. *)
      let fresh = [ Fact.of_list "R" [ Value.int 1; Value.int 2 ] ] in
      let r =
        Resilient.create
          ~config:{ Resilient.default_config with max_attempts = 4 }
          ~client:"dropped" (fun () ->
            Client.connect_unix ~timeout_s:2.0 ~path ())
      in
      Fun.protect
        ~finally:(fun () -> Resilient.close r)
        (fun () ->
          Alcotest.(check int) "the retry completes the op" 1
            (Resilient.ingest r ~instance:"main" fresh);
          Alcotest.(check bool) "the retry really happened" true
            (Resilient.retries r >= 1 && Atomic.get ingests_seen >= 2)))

let test_shedding_overload () =
  (* A negative watermark latches shedding after the first engine op
     (any wait estimate, even 0us on an uncontended engine, exceeds
     it): from then on, engine work is refused with a typed retry hint
     (except the 1-in-8 probe) while the control plane keeps
     answering. *)
  let config =
    {
      Server.default_config with
      shed_queue_us = Some (-1.0);
      shed_retry_after_s = 0.125;
    }
  in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"storm" c);
          let q = "H() <- R(x,y)" in
          ignore (Client.execute c ~instance:"main" (Adhoc q));
          let shed = ref 0 and served = ref 0 in
          for _ = 1 to 16 do
            match Client.execute c ~instance:"main" (Adhoc q) with
            | _ -> incr served
            | exception
                Client.Server_error (Overloaded { retry_after_s }, _) ->
              Alcotest.(check (float 0.0)) "configured retry hint" 0.125
                retry_after_s;
              incr shed
          done;
          Alcotest.(check bool) "most of the storm was shed" true (!shed >= 12);
          Alcotest.(check bool) "probes keep the engine observable" true
            (!served >= 1);
          Alcotest.(check bool) "control plane unaffected" true
            (Client.health c);
          let s = Server.stats server in
          Alcotest.(check int) "shed count surfaced" !shed s.shed))

let test_server_frame_limit () =
  (* A request frame past the server's limit is refused before
     allocation, with a typed reply, then the connection is dropped —
     the framing past an oversized announcement is unknowable. *)
  let config = { Server.default_config with max_frame = 256 } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          let big =
            List.init 64 (fun i ->
                Fact.of_list "R" [ Value.int i; Value.str (String.make 64 'x') ])
          in
          (match Client.ingest c ~instance:"main" big with
          | _ -> Alcotest.fail "oversized frame must be refused"
          | exception Client.Server_error (Corrupt_frame, _) -> ());
          (* The server hung up after the refusal. *)
          match Client.health c with
          | _ -> Alcotest.fail "connection must be gone"
          | exception (Client.Connection_lost _ | Client.Timed_out _) -> ()))

let test_client_typed_errors () =
  (* A peer that accepts and immediately hangs up: the exchange raises
     Connection_lost (never a raw Unix_error) and the client value is
     dead afterwards. *)
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind srv (ADDR_UNIX path);
  Unix.listen srv 4;
  let mode = ref `Hangup in
  let stop = Atomic.make false in
  let muted = ref [] in
  (* Poll with select so the acceptor can be stopped: a blocked
     accept(2) is not woken by closing the listener from another
     thread. *)
  let acceptor =
    Thread.create
      (fun () ->
        let rec go () =
          if not (Atomic.get stop) then begin
            (match Unix.select [ srv ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ -> (
              match Unix.accept srv with
              | fd, _ -> (
                match !mode with
                | `Hangup -> Unix.close fd
                | `Mute -> muted := fd :: !muted)
              | exception Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ());
            go ()
          end
        in
        go ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !muted;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Client.connect_unix ~path () in
      (match Client.health c with
      | _ -> Alcotest.fail "peer hung up"
      | exception Client.Connection_lost _ -> ());
      Alcotest.(check bool) "fatal error closes the client" true
        (Client.closed c);
      (match Client.health c with
      | _ -> Alcotest.fail "closed client must refuse"
      | exception Client.Connection_lost _ -> ());
      (* A peer that accepts and never answers: the per-request
         deadline fires as Timed_out. *)
      mode := `Mute;
      let c = Client.connect_unix ~timeout_s:0.1 ~path () in
      let t0 = Unix.gettimeofday () in
      (match Client.health c with
      | _ -> Alcotest.fail "mute peer cannot answer"
      | exception Client.Timed_out _ -> ());
      Alcotest.(check bool) "deadline honoured promptly" true
        (Unix.gettimeofday () -. t0 < 2.0);
      Alcotest.(check bool) "timeout closes the client" true (Client.closed c);
      (* Nobody listening at all: a typed connect failure. *)
      match Client.connect_unix ~path:(path ^ ".nowhere") () with
      | _ -> Alcotest.fail "nothing listens there"
      | exception Client.Connection_lost _ -> ())

let test_session_reaper () =
  let config =
    {
      Server.default_config with
      reap_after_s = Some 0.1;
      idle_timeout_s = Some 10.0;
    }
  in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"sleepy" c);
          (* Go idle past the reap threshold: the reaper shuts the
             session's socket and the next call finds it gone. *)
          Thread.delay 0.7;
          (match Client.health c with
          | _ -> Alcotest.fail "stalled session must be reaped"
          | exception (Client.Connection_lost _ | Client.Timed_out _) -> ());
          let s = Server.stats server in
          Alcotest.(check bool) "reap surfaced in stats" true (s.reaped >= 1)))

module Net = Lamp_faults.Net

let test_chaos_proxy_resilient () =
  (* The headline robustness property, in miniature: a client talking
     through a hostile proxy — resets, truncations, stalls, corrupted
     bytes, refused connects — still produces answers bit-identical to
     the direct library call, with keyed ingests applied exactly once. *)
  let config =
    { Server.default_config with read_timeout_s = Some 5.0 }
  in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      ignore server;
      incr sock_counter;
      let proxy_path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "lamp_chaos_%d_%d.sock" (Unix.getpid ())
             !sock_counter)
      in
      let plan =
        Net.make ~seed:7
          {
            Net.chaos with
            refuse = 0.1;
            reset = 0.15;
            truncate = 0.1;
            flip = 0.15;
            stall = 0.0;
            trickle = 0.0;
          }
      in
      let proxy =
        Net.Proxy.start ~plan
          ~listen:(ADDR_UNIX proxy_path)
          ~upstream:(ADDR_UNIX path) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Net.Proxy.stop proxy;
          try Unix.unlink proxy_path with Unix.Unix_error _ -> ())
        (fun () ->
          let r =
            Resilient.create
              ~config:
                {
                  Resilient.default_config with
                  max_attempts = 12;
                  budget_s = Some 30.0;
                }
              ~client:"chaos" (fun () ->
                Client.connect_unix ~timeout_s:2.0 ~path:proxy_path ())
          in
          Fun.protect
            ~finally:(fun () -> Resilient.close r)
            (fun () ->
              List.iter
                (fun (name, qtext) ->
                  let expected = Eval.eval (Parser.query qtext) seed_data in
                  let got, _ = Resilient.execute r ~instance:"main" (Adhoc qtext) in
                  check_bit_identical ("chaos " ^ name) expected got)
                (fig1_queries @ engine_queries);
              (* A keyed ingest through the same chaos applies exactly once. *)
              let fresh =
                [
                  Fact.of_list "R" [ Value.int 900; Value.int 901 ];
                  Fact.of_list "S" [ Value.int 901; Value.int 902 ];
                ]
              in
              let added = Resilient.ingest r ~instance:"main" fresh in
              Alcotest.(check int) "keyed ingest applied exactly once" 2 added;
              (* The proxy really did interfere. *)
              Alcotest.(check bool) "faults were injected" true
                (List.exists (fun (_, n) -> n > 0) (Net.Proxy.injected proxy)))))

let test_live_scrape () =
  Lamp_obs.Trace.set_mode (Ring 4096);
  Lamp_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Lamp_obs.Trace.set_enabled false;
      Lamp_obs.Trace.set_mode Full;
      Lamp_obs.Trace.reset ())
    (fun () ->
      with_server `Seq (fun _server ~executor:_ ~path ->
          with_client path (fun c ->
              ignore (Client.hello ~client:"scraper" c);
              let q = "H(x,z) <- E(x,y), E(y,z)" in
              for _ = 1 to 5 do
                ignore (Client.execute c ~instance:"main" (Adhoc q))
              done;
              let text = Client.metrics c in
              Alcotest.(check bool) "exposition is terminated" true
                (String.length text >= 6
                && String.sub text (String.length text - 6) 6 = "# EOF\n");
              let samples = Lamp_obs.Export.parse_openmetrics text in
              let value name =
                List.find_map
                  (fun (n, _, v) -> if n = name then Some v else None)
                  samples
              in
              (match value "lamp_serve_requests_total" with
              | Some v ->
                Alcotest.(check bool) "request counter matches load" true
                  (v >= 6.0)
              | None -> Alcotest.fail "lamp_serve_requests_total missing");
              (match value "lamp_serve_sessions" with
              | Some v ->
                Alcotest.(check bool) "sessions gauge sees the scraper" true
                  (v >= 1.0)
              | None -> Alcotest.fail "lamp_serve_sessions gauge missing");
              (match value "lamp_serve_uptime_s" with
              | Some v -> Alcotest.(check bool) "uptime gauge" true (v >= 0.0)
              | None -> Alcotest.fail "lamp_serve_uptime_s gauge missing");
              (* Zero-valued counters must be exposed on a scrape. *)
              (match value "lamp_serve_rejected_total" with
              | Some v -> Alcotest.(check (float 0.0)) "zeros emitted" 0.0 v
              | None -> Alcotest.fail "zero counter hidden from scrape");
              (* The server recorded spans for the traced work; the
                 trace op ships them back. *)
              let spans = Client.trace_dump ~limit:64 c in
              Alcotest.(check bool) "serve spans visible" true
                (List.exists
                   (fun (s : Wire.span_info) -> s.sp_name = "serve.request")
                   spans))))

let test_stop_drains_pools () =
  let executor = Executor.sequential in
  let server = Server.create ~executor () in
  Server.add_instance server ~name:"main" seed_data;
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  Server.listen_unix server ~path;
  with_client path (fun c ->
      ignore (Client.execute c ~instance:"main" (Adhoc "H() <- R(x,y)"));
      let s = Client.stats c in
      Alcotest.(check bool) "a handle is pooled while serving" true
        (List.exists (fun (_, _, idle) -> idle > 0) s.handle_pools));
  Server.stop server;
  let s = Server.stats server in
  List.iter
    (fun (name, in_use, idle) ->
      Alcotest.(check int) (name ^ ": no handle in use") 0 in_use;
      Alcotest.(check int) (name ^ ": no idle handle survives") 0 idle)
    s.handle_pools;
  Alcotest.(check int) "no session survives" 0 s.sessions;
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let test_concurrent_clients_match () =
  with_server (`Pool 2) (fun _server ~executor:_ ~path ->
      let q = "H(x,z) <- E(x,y), E(y,z)" in
      let expected = Eval.eval (Parser.query q) seed_data in
      let failures = Atomic.make 0 in
      let ts =
        List.init 16 (fun i ->
            Thread.create
              (fun () ->
                try
                  with_client path (fun c ->
                      ignore (Client.hello ~client:(string_of_int i) c);
                      for _ = 1 to 5 do
                        let got, _ =
                          Client.execute c ~instance:"main" (Adhoc q)
                        in
                        if not (Instance.equal expected got) then
                          Atomic.incr failures
                      done)
                with _ -> Atomic.incr failures)
              ())
      in
      List.iter Thread.join ts;
      Alcotest.(check int) "every concurrent result matched" 0
        (Atomic.get failures))

let () =
  Alcotest.run "lamp.serve"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "hostile input" `Quick test_wire_hostile;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trips" `Quick test_frame_roundtrip;
          Alcotest.test_case "checksum catches corruption" `Quick
            test_frame_checksum;
          Alcotest.test_case "length limit precedes allocation" `Quick
            test_frame_too_large;
          Alcotest.test_case "read deadline" `Quick test_frame_deadline;
          Alcotest.test_case "peer gone" `Quick test_frame_closed;
        ] );
      ( "rpool",
        [
          Alcotest.test_case "reuse and dispose" `Quick
            test_rpool_reuse_and_dispose;
          Alcotest.test_case "validation retires stale handles" `Quick
            test_rpool_validation;
          Alcotest.test_case "blocks at capacity" `Quick
            test_rpool_blocks_at_capacity;
          Alcotest.test_case "trim and drain" `Quick test_rpool_trim_and_drain;
          Alcotest.test_case "drain races a checkout" `Quick
            test_rpool_drain_races_checkout;
        ] );
      ( "quota",
        [
          Alcotest.test_case "token bucket" `Quick test_quota_bucket;
          Alcotest.test_case "clock jumps" `Quick test_quota_clock_jumps;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "replay and abort" `Quick
            test_dedup_replay_and_abort;
          Alcotest.test_case "digest mismatch rejects" `Quick
            test_dedup_digest_mismatch;
          Alcotest.test_case "bounded window evicts" `Quick test_dedup_eviction;
          Alcotest.test_case "concurrent retry blocks" `Quick
            test_dedup_concurrent_retry_blocks;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU semantics" `Quick test_cache_lru ] );
      ( "server",
        [
          Alcotest.test_case "library equivalence (seq)" `Quick
            test_equivalence_seq;
          Alcotest.test_case "library equivalence (pool)" `Quick
            test_equivalence_pool;
          Alcotest.test_case "prepared plans are shared" `Quick
            test_prepare_cache_and_ids;
          Alcotest.test_case "ingest invalidates" `Quick
            test_ingest_invalidation;
          Alcotest.test_case "admission fast-reject" `Quick
            test_admission_reject;
          Alcotest.test_case "per-client quotas" `Quick test_quota_throttle;
          Alcotest.test_case "errors keep the session" `Quick
            test_errors_and_health;
          Alcotest.test_case "hello accepts only its own version" `Quick
            test_hello_checks_version;
          Alcotest.test_case "keyed hello is refused" `Quick
            test_keyed_hello_refused;
          Alcotest.test_case "live metrics and trace scrape" `Quick
            test_live_scrape;
          Alcotest.test_case "stop drains every pool" `Quick
            test_stop_drains_pools;
          Alcotest.test_case "concurrent clients agree" `Quick
            test_concurrent_clients_match;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "keyed ingest exactly once" `Quick
            test_keyed_ingest_applies_once;
          Alcotest.test_case "dedup records are size-capped" `Quick
            test_dedup_byte_cap;
          Alcotest.test_case "dedup digest skips the header" `Quick
            test_dedup_digest_skips_header;
          Alcotest.test_case "dropped ingest is retried" `Quick
            test_resilient_retries_dropped_ingest;
          Alcotest.test_case "overload sheds with retry hint" `Quick
            test_shedding_overload;
          Alcotest.test_case "frame limit is typed and fatal" `Quick
            test_server_frame_limit;
          Alcotest.test_case "client failures are typed" `Quick
            test_client_typed_errors;
          Alcotest.test_case "stalled sessions are reaped" `Quick
            test_session_reaper;
          Alcotest.test_case "chaos proxy end-to-end" `Quick
            test_chaos_proxy_resilient;
        ] );
    ]
