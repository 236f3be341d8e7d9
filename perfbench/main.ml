(* The repository benchmark. One workload per invocation:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report, then as its last line one JSON object
   with the run's correctness, operation counts and metrics: the
   end-to-end metrics with [--trace 0], the per-layer metrics (from a
   separate traced phase) with [--trace 1]. README.md defines every
   metric on every workload. *)

open Util

let workloads = [ ("kst-zipf-ckpt", Wl_kst.run); ("serve-mixed", Wl_serve.run) ]

let end_to_end =
  [
    ("setup_s", "s");
    ("seq_ms", "ms");
    ("pool_ms", "ms");
    ("max_load", "count");
    ("total_comm", "count");
    ("throughput_rps", "1/s");
    ("peak_rss_mb", "MiB");
  ]

(* Every workload reports every per-layer metric; a layer the workload
   does not run through reads 0. *)
let per_layer =
  List.concat_map
    (fun backend ->
      List.map
        (fun (n, u) -> (n ^ "." ^ backend, u))
        [
          ("cluster.communicate_ms", "ms");
          ("cluster.merge_ms", "ms");
          ("cluster.compute_ms", "ms");
          ("cluster.other_ms", "ms");
          ("ckpt.encode_ms", "ms");
          ("job.traced_ms", "ms");
          ("trace.overhead_ms", "ms");
        ])
    [ "seq"; "pool" ]
  @ [
      ("policy.route_us_per_fact", "us");
      ("policy.nodes_per_fact", "count");
      ("pool.domains", "count");
      ("pool.tasks", "count");
      ("pool.steals", "count");
      ("pool.efficiency", "ratio");
      ("cq.wcoj_probes", "count");
      ("cq.wcoj_gallop_steps", "count");
      ("cq.index_builds", "count");
      ("kst.heavy_configs", "count");
      ("kst.r1_max_load", "count");
      ("kst.r2_max_load", "count");
      ("kst.r2_total", "count");
      ("ckpt.count", "count");
      ("ckpt.bytes", "bytes");
      ("store.save_ms", "ms");
      ("serve.queue_wait_us.p50", "us");
      ("serve.queue_wait_us.p90", "us");
      ("serve.request_us.p50", "us");
      ("serve.wire_us", "us");
      ("serve.exec_p90_ms", "ms");
      ("serve.exec_p99_ms", "ms");
      ("serve.ingest_p50_ms", "ms");
      ("cache.lookups", "count");
      ("cache.hit_rate", "ratio");
      ("serve.rejected", "count");
      ("serve.shed", "count");
      ("serve.throttled", "count");
      ("datalog.fixpoint_ms", "ms");
      ("datalog.stratum_ms", "ms");
      ("datalog.probes", "count");
      ("datalog.index_extends", "count");
      ("datalog.probe_misses", "count");
      ("datalog.dedup_hits", "count");
      ("datalog.dedup_fresh", "count");
      ("datalog.dedup_waste", "ratio");
      ("gc.minor", "count");
      ("gc.major", "count");
      ("gc.promoted_mw", "Mwords");
      ("host.alu_probe_ms", "ms");
      ("host.mem_probe_ms", "ms");
    ]

let select names measured =
  List.map
    (fun (name, unit) ->
      let v =
        List.find_map (fun (n, v, _) -> if n = name then Some v else None) measured
      in
      (name, Option.value ~default:0.0 v, unit))
    names

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run instead of the timed one");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (* Scratch files (checkpoint store, server socket) live under the
     working directory, one directory per process, removed at exit. *)
  let root = ".perfbench-run" in
  let run_dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  remove_tree run_dir;
  Sys.mkdir run_dir 0o755;
  let ops, report =
    Fun.protect
      ~finally:(fun () ->
        remove_tree run_dir;
        try Sys.rmdir root with Sys_error _ -> ())
      (fun () -> run ~run_dir ~seed ~seconds ~trace)
  in
  let host = host_metrics () in
  let shown =
    if trace then select per_layer (report.layers @ host) else select end_to_end report.e2e
  in
  Printf.printf "workload %s  seed %d  seconds %g  trace %b  domains %d\n" !workload seed
    seconds trace domains;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u) shown;
  if not trace then
    List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u) host;
  Printf.printf "  operations: %d attempted, %d failed\n" ops.attempted ops.failed;
  print_result ops shown
