(* The query service under a closed loop: a forked Serve.Server holds a
   uniform triangle instance and [domains] client connections drive it
   with prepared Local-mode executes of three triangle-shaped queries,
   one request in 50 an ingest of R-facts over fresh values. Fresh
   values join nothing, so every answer stays fixed and checkable while
   R really grows: the version bumps, cached plans are invalidated and
   pooled handles are rebuilt. *)

open Lamp
open Util
module Instance = Relational.Instance
module Fact = Relational.Fact
module Client = Serve.Client

let queries =
  [|
    "H(x,y,z) <- R(x,y), S(y,z), T(z,x)";
    "H(x,z) <- R(x,y), S(y,z), T(z,x)";
    "H(x) <- R(x,y), S(y,z), T(z,x)";
  |]

let ingest_every = 50
let ingest_batch = 4

(* ---- the server process -------------------------------------------- *)

type server = { pid : int; ctl : Unix.file_descr }

(* The child serves until its control pipe closes; a 'T' byte on the
   pipe turns tracing on. It never returns into the benchmark's code. *)
let server_main inst ~path ~ready ~ctl =
  let server =
    Serve.Server.create ~executor:Runtime.Executor.sequential ()
  in
  Serve.Server.add_instance server ~name:"g" inst;
  Serve.Server.listen_unix server ~path;
  ignore (Unix.write_substring ready "r" 0 1);
  Unix.close ready;
  let buf = Bytes.create 1 in
  let rec loop () =
    match Unix.read ctl buf 0 1 with
    | 0 -> ()
    | _ ->
      if Bytes.get buf 0 = 'T' then Trace.set_enabled true;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Serve.Server.stop server

let start_server inst ~path =
  flush_all ();
  let ready_r, ready_w = Unix.pipe () and ctl_r, ctl_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    Unix.close ctl_w;
    let code =
      match server_main inst ~path ~ready:ready_w ~ctl:ctl_r with
      | () -> 0
      | exception _ -> 2
    in
    Unix._exit code
  | pid ->
    Unix.close ready_w;
    Unix.close ctl_r;
    let ok = Unix.read ready_r (Bytes.create 1) 0 1 = 1 in
    Unix.close ready_r;
    let s = { pid; ctl = ctl_w } in
    if not ok then failwith "server process did not start";
    s

let stop_server s =
  (try Unix.close s.ctl with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

(* ---- clients --------------------------------------------------------- *)

type client = {
  conn : Client.t;
  ids : int array;  (** prepared plan per query *)
  mutable fresh : int;  (** next never-seen value for ingests *)
  mutable sent : int;  (** loop iterations: an execute, or an ingest *)
  mutable requests : int;
  mutable failed : int;
  mutable ingested : int;
  mutable exec_ms : float list;
  mutable ingest_ms : float list;
  mutable done_at : float list;  (** completion time of every request *)
}

let completed c =
  c.requests <- c.requests + 1;
  c.done_at <- now () :: c.done_at

let prepare_all c =
  Array.iteri
    (fun i q ->
      c.ids.(i) <- (Client.prepare c.conn ~instance:"g" ~query:q).Client.id;
      completed c)
    queries

let connect ~path k =
  let conn = Client.connect_unix ~timeout_s:60.0 ~path () in
  ignore (Client.hello ~client:(Printf.sprintf "bench%d" k) conn);
  let c =
    {
      conn;
      ids = Array.make (Array.length queries) 0;
      fresh = 1_000_000_000 * (k + 1);
      sent = 0;
      requests = 0;
      failed = 0;
      ingested = 0;
      exec_ms = [];
      ingest_ms = [];
      done_at = [];
    }
  in
  prepare_all c;
  c

let reset_samples c =
  c.exec_ms <- [];
  c.ingest_ms <- [];
  c.done_at <- []

(* One client's closed loop until [until]: the next request goes out as
   soon as the previous answer is in and checked. *)
let drive ~expected ~until c =
  while now () < until do
    c.sent <- c.sent + 1;
    match
      if c.sent mod ingest_every = 0 then begin
        let facts =
          List.init ingest_batch (fun i ->
              Fact.of_ints "R" [ c.fresh + (2 * i); c.fresh + (2 * i) + 1 ])
        in
        c.fresh <- c.fresh + (2 * ingest_batch);
        let added, dt = time (fun () -> Client.ingest c.conn ~instance:"g" facts) in
        completed c;
        c.ingest_ms <- (dt *. 1000.0) :: c.ingest_ms;
        c.ingested <- c.ingested + added;
        (* Plans compiled before the ingest are dropped from the cache;
           a client re-prepares to pick up fresh cardinalities. *)
        prepare_all c;
        added = ingest_batch
      end
      else begin
        let q = c.sent mod Array.length queries in
        let (result, _), dt =
          time (fun () -> Client.execute c.conn ~instance:"g" (Serve.Wire.Id c.ids.(q)))
        in
        completed c;
        c.exec_ms <- (dt *. 1000.0) :: c.exec_ms;
        Instance.equal result expected.(q)
      end
    with
    | true -> ()
    | false -> c.failed <- c.failed + 1
    | exception e ->
      c.failed <- c.failed + 1;
      Printf.eprintf "perfbench: request failed: %s\n%!" (Printexc.to_string e)
  done

let block = 20

(* Drives every client concurrently (one thread each) for [seconds].
   Returns the throughput in requests per second: the median, over
   consecutive blocks of [block] completions, of the block's rate. *)
let phase ~expected ~seconds clients =
  List.iter reset_samples clients;
  let t0 = now () in
  let until = t0 +. seconds in
  let threads =
    List.map (fun c -> Thread.create (fun () -> drive ~expected ~until c) ()) clients
  in
  List.iter Thread.join threads;
  let times = Array.of_list (List.concat_map (fun c -> c.done_at) clients) in
  Array.sort compare times;
  let rec rates k acc =
    if k + block >= Array.length times then acc
    else rates (k + block) (float_of_int block /. (times.(k + block) -. times.(k)) :: acc)
  in
  median (rates 0 [])

let execs clients = List.concat_map (fun c -> c.exec_ms) clients
let ingests clients = List.concat_map (fun c -> c.ingest_ms) clients

(* histogram_quantile over a scraped cumulative histogram. *)
let hist_quantile samples name q =
  let buckets =
    List.filter_map
      (fun (n, labels, v) ->
        if n <> Obs.Export.om_name name ^ "_bucket" then None
        else
          match List.assoc_opt "le" labels with
          | Some "+Inf" -> Some (infinity, v)
          | Some le -> Some (float_of_string le, v)
          | None -> None)
      samples
    |> List.sort compare
  in
  match List.rev buckets with
  | [] -> 0.0
  | (_, total) :: _ ->
    let target = q *. total in
    let rec go lo_le lo_cnt = function
      | [] -> lo_le
      | (le, cnt) :: rest ->
        if cnt >= target && cnt > lo_cnt then
          if Float.is_finite le then
            lo_le +. ((le -. lo_le) *. (target -. lo_cnt) /. (cnt -. lo_cnt))
          else lo_le
        else go le cnt rest
    in
    go 0.0 0.0 buckets

let run ~run_dir ~seed ~seconds ~trace =
  let ops = ops () in
  let path = Filename.concat run_dir "serve.sock" in
  let rng = Random.State.make [| seed |] in
  let inst =
    Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T" ]
      (Mpc.Workload.graph_pairs ~rng ~m:1500 ~domain:300)
  in
  (* Set-up: fork, listen, connect and first prepare, repeated. The
     instance is generated before the first fork; no domain is spawned
     in this process. *)
  let setup () =
    let s = start_server inst ~path in
    (s, List.init domains (connect ~path))
  in
  let discard (s, clients) =
    List.iter (fun c -> Client.close c.conn) clients;
    stop_server s
  in
  let (server, clients), setup_s = setup_median ~discard setup in
  Fun.protect
    ~finally:(fun () -> discard (server, clients))
    (fun () ->
      let expected =
        Array.map (fun q -> Cq.Eval.eval (Cq.Parser.query q) inst) queries
      in
      let lead = List.hd clients in
      (* Warm-up: a short untimed phase on every connection. *)
      ignore (phase ~expected ~seconds:1.0 clients);
      let e2e, layers =
        if not trace then begin
          ignore (phase ~expected ~seconds:(0.3 *. seconds) [ lead ]);
          let solo = median (execs [ lead ]) in
          let rps = phase ~expected ~seconds:(0.7 *. seconds) clients in
          ( [
              ("setup_s", setup_s, "s");
              ("seq_ms", solo, "ms");
              ("pool_ms", median (execs clients), "ms");
              (* One server, p = 1: its load is the whole served instance. *)
              ("max_load", float_of_int (Instance.cardinal inst), "count");
              ("total_comm", float_of_int (Instance.cardinal inst), "count");
              ("throughput_rps", rps, "1/s");
            ],
            [] )
        end
        else begin
          ignore (phase ~expected ~seconds:(0.4 *. seconds) clients);
          let untraced = execs clients and ingest = ingests clients in
          ignore (Unix.write_substring server.ctl "T" 0 1);
          ignore (phase ~expected ~seconds:(0.6 *. seconds) clients);
          let traced = execs clients in
          let scrape = Obs.Export.parse_openmetrics (Client.metrics lead.conn) in
          let st = Client.stats lead.conn in
          let qw = hist_quantile scrape "serve.queue_wait_us" in
          let req_p50 = hist_quantile scrape "serve.request_us" 0.5 in
          let lookups = st.plan_cache_hits + st.plan_cache_misses in
          ( [],
            [
              ("serve.queue_wait_us.p50", qw 0.5, "us");
              ("serve.queue_wait_us.p90", qw 0.9, "us");
              ("serve.request_us.p50", req_p50, "us");
              ("serve.wire_us", (median traced *. 1000.0) -. req_p50, "us");
              ("serve.exec_p90_ms", quantile 0.9 untraced, "ms");
              ("serve.exec_p99_ms", quantile 0.99 untraced, "ms");
              ("serve.ingest_p50_ms", median ingest, "ms");
              ("cache.lookups", float_of_int lookups, "count");
              ( "cache.hit_rate",
                (if lookups > 0 then float_of_int st.plan_cache_hits /. float_of_int lookups
                 else 0.0),
                "ratio" );
              ("serve.rejected", float_of_int st.rejected, "count");
              ("serve.shed", float_of_int st.shed, "count");
              ("serve.throttled", float_of_int st.throttled, "count");
              ("job.traced_ms.seq", median traced, "ms");
              ("trace.overhead_ms.seq", median traced -. median untraced, "ms");
            ] )
        end
      in
      ops.attempted <- List.fold_left (fun a c -> a + c.requests) 1 clients;
      ops.failed <- List.fold_left (fun a c -> a + c.failed) 0 clients;
      (* The served R grew by exactly what the clients ingested. *)
      let ingested = List.fold_left (fun a c -> a + c.ingested) 0 clients in
      check ops "served R grew by the ingested facts"
        (match
           Client.execute lead.conn ~instance:"g" (Serve.Wire.Adhoc "H(x,y) <- R(x,y)")
         with
        | r_now, _ ->
          Instance.cardinal r_now
          = Relational.Tuple.Set.cardinal (Instance.tuples inst "R") + ingested
        | exception _ -> false);
      let rss = ("peak_rss_mb", peak_rss_mb (string_of_int server.pid), "MiB") in
      (ops, { e2e = e2e @ [ rss ]; layers }))
