(* The Datalog layer, measured as a traced probe beside the KST job:
   semi-naive transitive closure over a uniform random graph drawn from
   the run's seed, the one place where Cq.Plan's write side (Db.add,
   incremental index extends, dedup) dominates. Every result is checked
   against a breadth-first closure written here, so it shares no code
   with the engine. *)

open Lamp
open Util
module Instance = Relational.Instance
module Fact = Relational.Fact

let bfs_closure g =
  let succ = Hashtbl.create 1024 in
  Instance.iter
    (fun f ->
      match Relational.Tuple.to_list (Fact.args f) with
      | [ Relational.Value.Int a; Relational.Value.Int b ] ->
        Hashtbl.replace succ a (b :: Option.value ~default:[] (Hashtbl.find_opt succ a))
      | _ -> invalid_arg "bfs_closure: binary integer edges expected")
    g;
  let next v = Option.value ~default:[] (Hashtbl.find_opt succ v) in
  Hashtbl.fold
    (fun src _ acc ->
      let seen = Hashtbl.create 64 in
      let queue = Queue.create () in
      List.iter (fun v -> Queue.add v queue) (next src);
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          List.iter (fun w -> Queue.add w queue) (next v)
        end
      done;
      Hashtbl.fold (fun v () acc -> Fact.of_ints "TC" [ src; v ] :: acc) seen acc)
    succ []
  |> Instance.of_facts

(* Three traced fixpoints; medians of their span self times and
   counters. *)
let metrics ops ~seed =
  let rng = Random.State.make [| seed |] in
  let g = Relational.Generate.random_graph ~rng ~nodes:200 ~edges:800 () in
  let oracle = bfs_closure g in
  let was = Trace.is_enabled () in
  Trace.set_enabled true;
  let runs =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled was)
      (fun () ->
        List.init 3 (fun _ ->
            Gc.compact ();
            Trace.reset ();
            ops.attempted <- ops.attempted + 1;
            let tc, dt =
              time (fun () ->
                  Datalog.Eval.query Datalog.Canned.transitive_closure ~output:"TC" g)
            in
            check ops "datalog TC equals the BFS closure" (Instance.equal tc oracle);
            let self = self_times (Trace.events ()) in
            let counters = Trace.counters ~all:true () in
            let count n =
              float_of_int (Option.value ~default:0 (List.assoc_opt n counters))
            in
            [
              ("datalog.fixpoint_ms", dt *. 1000.0);
              ("datalog.stratum_ms", self "datalog.stratum");
              ("datalog.probes", count "cq.probes");
              ("datalog.index_extends", count "cq.index_extends");
              ("datalog.probe_misses", count "cq.probe_misses");
              ("datalog.dedup_hits", count "cq.dedup_hits");
              ("datalog.dedup_fresh", count "cq.dedup_fresh");
            ]))
  in
  let med name = median (List.map (List.assoc name) runs) in
  let hits = med "datalog.dedup_hits" and fresh = med "datalog.dedup_fresh" in
  [
    ("datalog.fixpoint_ms", med "datalog.fixpoint_ms", "ms");
    ("datalog.stratum_ms", med "datalog.stratum_ms", "ms");
    ("datalog.probes", med "datalog.probes", "count");
    ("datalog.index_extends", med "datalog.index_extends", "count");
    ("datalog.probe_misses", med "datalog.probe_misses", "count");
    ("datalog.dedup_hits", hits, "count");
    ("datalog.dedup_fresh", fresh, "count");
    ("datalog.dedup_waste", (if hits +. fresh > 0.0 then hits /. (hits +. fresh) else 0.0), "ratio");
  ]
