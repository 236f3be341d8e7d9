(* The KST workload: the two-round skew-resilient triangle schedule on a
   Zipf graph, each job under a fresh checkpointing supervisor on an
   on-disk store (fsync as shipped). Jobs run on the sequential executor
   and on a pool, interleaved; every result is checked against a local
   oracle and every job against the first one. *)

open Lamp
open Util
module Instance = Relational.Instance
module Executor = Runtime.Executor
module Pool = Runtime.Pool
module Stats = Mpc.Stats
module Store = Jobs.Store
module Supervisor = Jobs.Supervisor

let query = Cq.Examples.q2_triangle
let p = 16

type outcome = {
  result : Instance.t;
  stats : Stats.t;
  configs : int;
  checkpoints : int;
  checkpoint_bytes : int;
}

let run_job ~store inst executor =
  Trace.span ~cat:"bench" "bench.job" (fun () ->
      let job = Supervisor.create ~store "triangle" in
      let result, stats, configs = Mpc.Kst.run ~executor ~job ~p query inst in
      {
        result;
        stats;
        configs;
        checkpoints = job.Supervisor.checkpoints;
        checkpoint_bytes = job.Supervisor.checkpoint_bytes;
      })

(* Outside-in timing of the routing policy of the light round: every
   input fact through [Policy.responsible_nodes] at the shares the job
   picks for p servers. *)
let policy_metrics inst =
  let sizes (a : Cq.Ast.atom) =
    Relational.Tuple.Set.cardinal (Instance.tuples inst a.Cq.Ast.rel)
  in
  let shares, _ = Mpc.Shares.optimize ~objective:Mpc.Shares.Max_load ~p ~sizes query in
  let policy, _ = Distribution.Policy.hypercube ~name:"kst-light" ~query ~shares () in
  let facts = Instance.facts inst in
  let n = float_of_int (List.length facts) in
  let routed = ref 0 in
  let (), dt =
    time (fun () ->
        List.iter
          (fun f ->
            routed :=
              !routed + List.length (Distribution.Policy.responsible_nodes policy f))
          facts)
  in
  [
    ("policy.route_us_per_fact", dt *. 1e6 /. n, "us");
    ("policy.nodes_per_fact", float_of_int !routed /. n, "count");
  ]

(* Outside-in timing of [Store.save] at the run's checkpoint size. *)
let store_save_ms store ~bytes =
  let payload = String.make (max 1 bytes) 'c' in
  let samples =
    List.init 5 (fun round ->
        snd (time (fun () -> Store.save store ~job:"perfbench-save" ~round payload)))
  in
  Store.clear store ~job:"perfbench-save";
  median samples *. 1000.0

let run ~run_dir ~seed ~seconds ~trace =
  let ops = ops () in
  let store_dir = Filename.concat run_dir "ckpt" in
  (* Set-up: input generation, instance build, pool spawn and store
     open. *)
  let setup () =
    let rng = Random.State.make [| seed |] in
    let inst =
      Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T" ]
        (Mpc.Workload.zipf_pairs ~rng ~m:20000 ~domain:4000 ~s:1.1)
    in
    let pool = Pool.create ~domains () in
    (inst, Store.on_disk store_dir, pool)
  in
  let (inst, store, pool), setup_s =
    setup_median ~discard:(fun (_, _, p) -> Pool.shutdown p) setup
  in
  (* Pools live only while pool jobs run: sequential jobs run in a
     single-domain process, as a sequential user's would. *)
  Pool.shutdown pool;
  Fun.protect
    ~finally:(fun () -> remove_tree store_dir)
    (fun () ->
      let oracle = Cq.Eval.eval query inst in
      let reference = ref None in
      let layer_samples = Hashtbl.create 8 in
      let record backend self count pool_delta =
        let m =
          [
            ("cluster.communicate_ms", self "mpc.communicate");
            ("cluster.merge_ms", self "mpc.merge");
            ("cluster.compute_ms", self "mpc.compute");
            ("ckpt.encode_ms", self "job.checkpoint");
            ("bench.job_self_ms", self "bench.job");
            ("cq.wcoj_probes", count "cq.wcoj_probes");
            ("cq.wcoj_gallop_steps", count "cq.wcoj_gallop_steps");
            ("cq.index_builds", count "cq.index_builds");
            ("pool.tasks", float_of_int (fst pool_delta));
            ("pool.steals", float_of_int (snd pool_delta));
          ]
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt layer_samples backend) in
        Hashtbl.replace layer_samples backend (m :: prev)
      in
      let op backend () =
        let pool = if backend = "pool" then Some (Pool.create ~domains ()) else None in
        let executor =
          match pool with Some p -> Executor.pool p | None -> Executor.sequential
        in
        fun () ->
          let tracing = Trace.is_enabled () in
          if tracing then Trace.reset ();
          let c0 = Executor.counters executor in
          let o =
            try run_job ~store inst executor
            with e ->
              Option.iter Pool.shutdown pool;
              raise e
          in
          fun () ->
            let c1 = Executor.counters executor in
            Option.iter Pool.shutdown pool;
            if tracing then begin
              let counters = Trace.counters ~all:true () in
              let count n =
                float_of_int (Option.value ~default:0 (List.assoc_opt n counters))
              in
              record backend (self_times (Trace.events ())) count
                (c1.tasks - c0.tasks, c1.steals - c0.steals)
            end;
            let same =
              match !reference with
              | None ->
                reference := Some o;
                true
              | Some r ->
                (* Seq and pool, and every repetition, agree bit for bit
                   on the result and on Stats.t. *)
                Instance.equal r.result o.result && r.stats = o.stats
                && r.configs = o.configs
            in
            same && Instance.equal o.result oracle
      in
      let ops_list = [ ("seq", op "seq"); ("pool", op "pool") ] in
      let untraced_share = if trace then 0.4 else 1.0 in
      let samples = interleave ops ~seconds:(seconds *. untraced_share) ops_list in
      let seq_s = List.assoc "seq" samples and pool_s = List.assoc "pool" samples in
      let seq_ms = median_wall seq_s and pool_ms = median_wall pool_s in
      let r =
        match !reference with
        | Some r -> r
        | None ->
          (* Every job failed; the failures are already counted. *)
          {
            result = Instance.empty;
            stats = { Stats.p; initial_max = 0; rounds = []; recoveries = [] };
            configs = 0;
            checkpoints = 0;
            checkpoint_bytes = 0;
          }
      in
      let e2e =
        [
          ("setup_s", setup_s, "s");
          ("seq_ms", seq_ms, "ms");
          ("pool_ms", pool_ms, "ms");
          ("max_load", float_of_int (Stats.max_load r.stats), "count");
          ("total_comm", float_of_int (Stats.total_communication r.stats), "count");
          (* Jobs per second, alternating the two backends. *)
          ("throughput_rps", 2000.0 /. (seq_ms +. pool_ms), "1/s");
          ("peak_rss_mb", peak_rss_mb "self", "MiB");
        ]
      in
      let layers =
        if not trace then []
        else begin
          Trace.set_enabled true;
          let traced_samples =
            Fun.protect
              ~finally:(fun () -> Trace.set_enabled false)
              (fun () ->
                interleave ops ~warmup:false ~seconds:(seconds *. 0.6) ~min_rounds:2
                  ops_list)
          in
          let med backend name =
            let runs = Option.value ~default:[] (Hashtbl.find_opt layer_samples backend) in
            median (List.map (List.assoc name) runs)
          in
          let save_ms =
            if r.checkpoints > 0 then
              store_save_ms store ~bytes:(r.checkpoint_bytes / r.checkpoints)
            else 0.0
          in
          let per backend untraced_ms =
            let traced_ms = median_wall (List.assoc backend traced_samples) in
            let med = med backend and sfx n = n ^ "." ^ backend in
            [
              (sfx "cluster.communicate_ms", med "cluster.communicate_ms", "ms");
              (sfx "cluster.merge_ms", med "cluster.merge_ms", "ms");
              (sfx "cluster.compute_ms", med "cluster.compute_ms", "ms");
              (* What the job spends outside the rounds and the
                 checkpoint encode (shares LP, partition, union_all),
                 less the outside-in estimate of its store saves. *)
              ( sfx "cluster.other_ms",
                med "bench.job_self_ms" -. (float_of_int r.checkpoints *. save_ms),
                "ms" );
              (sfx "ckpt.encode_ms", med "ckpt.encode_ms", "ms");
              (sfx "job.traced_ms", traced_ms, "ms");
              (sfx "trace.overhead_ms", traced_ms -. untraced_ms, "ms");
            ]
          in
          let round k =
            match List.nth_opt r.stats.Stats.rounds k with
            | Some rs -> rs
            | None -> { Stats.max_received = 0; total_received = 0 }
          in
          per "seq" seq_ms @ per "pool" pool_ms
          @ List.map
              (fun name -> (name, med "seq" name, "count"))
              [ "cq.wcoj_probes"; "cq.wcoj_gallop_steps"; "cq.index_builds" ]
          @ [
              ("pool.domains", float_of_int domains, "count");
              ("pool.tasks", med "pool" "pool.tasks", "count");
              ("pool.steals", med "pool" "pool.steals", "count");
              ("pool.efficiency", seq_ms /. (float_of_int domains *. pool_ms), "ratio");
              ("ckpt.count", float_of_int r.checkpoints, "count");
              ("ckpt.bytes", float_of_int r.checkpoint_bytes, "bytes");
              ("store.save_ms", save_ms, "ms");
              ("kst.heavy_configs", float_of_int r.configs, "count");
              ("kst.r1_max_load", float_of_int (round 0).max_received, "count");
              ("kst.r2_max_load", float_of_int (round 1).max_received, "count");
              ("kst.r2_total", float_of_int (round 1).total_received, "count");
            ]
          @ policy_metrics inst @ gc_metrics seq_s @ Datalog_probe.metrics ops ~seed
        end
      in
      (ops, { e2e; layers }))
