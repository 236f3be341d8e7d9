open Lamp_relational
open Lamp_cq

(* Named-column relations: the working representation of the Yannakakis
   passes. Columns are variable names; rows are value tuples. *)
module Rel = struct
  type t = {
    cols : string list;
    rows : Tuple.Set.t;
  }

  let cardinal r = Tuple.Set.cardinal r.rows

  let positions r cols =
    List.map
      (fun c ->
        match List.find_index (String.equal c) r.cols with
        | Some i -> i
        | None -> invalid_arg (Fmt.str "Yannakakis: unknown column %s" c))
      cols

  let key_of_row positions row = List.map (fun i -> row.(i)) positions

  let semijoin r1 r2 =
    let shared = List.filter (fun c -> List.mem c r2.cols) r1.cols in
    if shared = [] then if Tuple.Set.is_empty r2.rows then { r1 with rows = Tuple.Set.empty } else r1
    else begin
      let pos1 = positions r1 shared and pos2 = positions r2 shared in
      let keys = Hashtbl.create 64 in
      Tuple.Set.iter
        (fun row -> Hashtbl.replace keys (key_of_row pos2 row) ())
        r2.rows;
      {
        r1 with
        rows =
          Tuple.Set.filter
            (fun row -> Hashtbl.mem keys (key_of_row pos1 row))
            r1.rows;
      }
    end

  let join r1 r2 =
    let shared = List.filter (fun c -> List.mem c r2.cols) r1.cols in
    let extra = List.filter (fun c -> not (List.mem c r1.cols)) r2.cols in
    let pos1 = positions r1 shared
    and pos2 = positions r2 shared
    and pos_extra = positions r2 extra in
    let index = Hashtbl.create 64 in
    Tuple.Set.iter
      (fun row ->
        let key = key_of_row pos2 row in
        let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
        Hashtbl.replace index key (row :: prev))
      r2.rows;
    let rows =
      Tuple.Set.fold
        (fun row1 acc ->
          match Hashtbl.find_opt index (key_of_row pos1 row1) with
          | None -> acc
          | Some matches ->
            List.fold_left
              (fun acc row2 ->
                let combined =
                  Array.append row1
                    (Array.of_list (key_of_row pos_extra row2))
                in
                Tuple.Set.add combined acc)
              acc matches)
        r1.rows Tuple.Set.empty
    in
    { cols = r1.cols @ extra; rows }
end

(* The relation of a body atom: tuples of the atom's relation that match
   its constants and repeated variables, projected onto its distinct
   variables (in first-occurrence order). *)
let atom_relation instance (a : Ast.atom) =
  let cols =
    List.fold_left
      (fun acc t ->
        match t with
        | Ast.Var v when not (List.mem v acc) -> v :: acc
        | _ -> acc)
      [] a.Ast.terms
    |> List.rev
  in
  let rows =
    Tuple.Set.fold
      (fun tup acc ->
        if Tuple.arity tup <> List.length a.Ast.terms then acc
        else begin
          let binding = Hashtbl.create 4 in
          let ok = ref true in
          List.iteri
            (fun i t ->
              match t with
              | Ast.Const c -> if not (Value.equal c tup.(i)) then ok := false
              | Ast.Var v -> (
                match Hashtbl.find_opt binding v with
                | Some prev -> if not (Value.equal prev tup.(i)) then ok := false
                | None -> Hashtbl.add binding v tup.(i)))
            a.Ast.terms;
          if !ok then
            Tuple.Set.add
              (Array.of_list (List.map (Hashtbl.find binding) cols))
              acc
          else acc
        end)
      (Instance.tuples instance a.Ast.rel)
      Tuple.Set.empty
  in
  { Rel.cols; rows }

type reduced_tree = {
  atom : Ast.atom;
  mutable rel : Rel.t;
  children : reduced_tree list;
}

let rec of_join_tree instance (t : Hypergraph.join_tree) =
  {
    atom = t.Hypergraph.atom;
    rel = atom_relation instance t.Hypergraph.atom;
    children = List.map (of_join_tree instance) t.Hypergraph.children;
  }

(* Bottom-up then top-down semi-join passes: afterwards no relation
   contains a dangling tuple (the "full reducer"). *)
let rec reduce_up node =
  List.iter reduce_up node.children;
  List.iter
    (fun child -> node.rel <- Rel.semijoin node.rel child.rel)
    node.children

let rec reduce_down node =
  List.iter
    (fun child ->
      child.rel <- Rel.semijoin child.rel node.rel;
      reduce_down child)
    node.children

let full_reduce node =
  reduce_up node;
  reduce_down node

let rec join_up node =
  List.fold_left
    (fun acc child -> Rel.join acc (join_up child))
    node.rel node.children

exception Cyclic

let eval_acyclic q instance =
  if not (Ast.is_positive q) then
    invalid_arg "Yannakakis.eval_acyclic: defined for positive CQs";
  match Hypergraph.gyo q with
  | None -> raise Cyclic
  | Some forest ->
    let trees = List.map (of_join_tree instance) forest in
    List.iter full_reduce trees;
    let joined =
      match trees with
      | [] -> { Rel.cols = []; rows = Tuple.Set.singleton [||] }
      | first :: rest ->
        List.fold_left
          (fun acc tree -> Rel.join acc (join_up tree))
          (join_up first) rest
    in
    let head = Ast.head q in
    let make_fact row =
      let value_of = function
        | Ast.Const c -> c
        | Ast.Var v ->
          let i =
            match List.find_index (String.equal v) joined.Rel.cols with
            | Some i -> i
            | None -> assert false
          in
          row.(i)
      in
      Fact.of_list head.Ast.rel (List.map value_of head.Ast.terms)
    in
    Tuple.Set.fold
      (fun row acc -> Instance.add (make_fact row) acc)
      joined.Rel.rows Instance.empty

(* Sizes before/after full reduction, per atom — the quantity behind
   Yannakakis' guarantee that intermediate results stay bounded. *)
let reduction_report q instance =
  match Hypergraph.gyo q with
  | None -> raise Cyclic
  | Some forest ->
    let trees = List.map (of_join_tree instance) forest in
    let before =
      let rec sizes node =
        (node.atom, Rel.cardinal node.rel)
        :: List.concat_map sizes node.children
      in
      List.concat_map sizes trees
    in
    List.iter full_reduce trees;
    let after =
      let rec sizes node =
        (node.atom, Rel.cardinal node.rel)
        :: List.concat_map sizes node.children
      in
      List.concat_map sizes trees
    in
    List.map2 (fun (a, b) (_, c) -> (a, b, c)) before after

(* ------------------------------------------------------------------ *)
(* GYM: Yannakakis in MPC (Section 3.2 / [6]).                         *)

(* Load accounting for one repartition of two column-relations on their
   shared columns over p servers. The rows fan out over the executor
   into per-worker count vectors, summed afterwards — integer addition
   commutes, so the counts are backend-independent. *)
let repartition_stats ?(executor = Lamp_runtime.Executor.sequential) ~seed ~p
    (r1 : Rel.t) (r2 : Rel.t) shared =
  let module Executor = Lamp_runtime.Executor in
  let nw = Executor.workers executor in
  let per_worker = Array.init nw (fun _ -> Array.make p 0) in
  let account (r : Rel.t) =
    let pos = Rel.positions r shared in
    let rows = Array.of_seq (Tuple.Set.to_seq r.rows) in
    Executor.parallel_for executor ~n:(Array.length rows) (fun ~worker i ->
        let row = rows.(i) in
        let key =
          String.concat "\000"
            (List.map (fun j -> Value.to_string row.(j)) pos)
        in
        let dst = Hashtbl.seeded_hash (seed land max_int) key mod p in
        let counts = per_worker.(worker) in
        counts.(dst) <- counts.(dst) + 1)
  in
  account r1;
  account r2;
  let received = Array.make p 0 in
  Array.iter
    (Array.iteri (fun dst k -> received.(dst) <- received.(dst) + k))
    per_worker;
  let max_received = Array.fold_left max 0 received in
  let total_received = Array.fold_left ( + ) 0 received in
  ({ Stats.max_received; total_received }, received)

module Codec = Lamp_jobs.Codec

let w_rel w (r : Rel.t) =
  Codec.w_list w Codec.w_string r.Rel.cols;
  Codec.w_list w
    (fun w row -> Codec.w_array w Codec.w_value row)
    (Tuple.Set.elements r.Rel.rows)

let r_rel r =
  let cols = Codec.r_list r Codec.r_string in
  let rows =
    List.fold_left
      (fun acc row -> Tuple.Set.add row acc)
      Tuple.Set.empty
      (Codec.r_list r (fun r -> Codec.r_array r Codec.r_value))
  in
  { Rel.cols; rows }

(* One GYM round as a step: a level of bottom-up semi-joins, a level of
   top-down semi-joins, or a single join edge (the join rounds of one
   tree run one edge at a time, in [join_up] post-order). *)
type op = Up of int | Down of int | Edge of int * int

type gym_job = {
  nops : int;  (** Rounds in the plan: one {!exec} step each. *)
  exec : int -> unit;
  write : Lamp_jobs.Codec.w -> unit;
  read : Lamp_jobs.Codec.r -> unit;
  finish : unit -> Instance.t * Stats.t;
  shrink : round:int -> dead:int -> unit;
}

(* Numbered view of the reduced forest: pre-order ids address each
   node's mutable relation and join accumulator, so a checkpoint can be
   written and restored positionally. *)
type numbered = { id : int; node : reduced_tree; kids : numbered list }

let gym_job ?(seed = 0) ?forest ?executor ?(faults = Lamp_faults.Plan.none) ~p
    q instance =
  if p < 1 then invalid_arg "Yannakakis.gym: p < 1";
  Lamp_obs.Sketch.set_context "gym";
  let forest =
    match forest with Some f -> Some f | None -> Hypergraph.gyo q
  in
  match forest with
  | None -> raise Cyclic
  | Some forest ->
    let trees = List.map (of_join_tree instance) forest in
    let counter = ref 0 in
    let rec number t =
      let id = !counter in
      incr counter;
      { id; node = t; kids = List.map number t.children }
    in
    let roots = List.map number trees in
    let nodes =
      match trees with
      | [] -> [||]
      | first :: _ -> Array.make !counter first
    in
    let rec index nd =
      nodes.(nd.id) <- nd.node;
      List.iter index nd.kids
    in
    List.iter index roots;
    (* The running join result at each node ([None] until its first
       Edge op fires; a leaf's result is its reduced relation). *)
    let acc = Array.make (max 1 !counter) None in
    let get_acc id =
      match acc.(id) with Some r -> r | None -> nodes.(id).rel
    in
    let rec depth node =
      1 + List.fold_left (fun a c -> max a (depth c)) 0 node.children
    in
    let max_depth = List.fold_left (fun a t -> max a (depth t)) 0 trees in
    let rec edge_ops nd =
      List.concat_map edge_ops nd.kids
      @ List.map (fun k -> Edge (nd.id, k.id)) nd.kids
    in
    let ops =
      Array.of_list
        (List.init (max_depth - 1) (fun i -> Up (max_depth - 1 - i))
        @ List.init (max_depth - 1) (fun i -> Down (i + 1))
        @ List.concat_map edge_ops roots)
    in
    (* Mutable job state: current server count (shrinks on a permanent
       crash), completed rounds (newest first, with the per-server
       delivery counts the analytic fault accounting reads) and the
       rebalance records already charged. *)
    let p = ref p in
    let initial_max = (Instance.cardinal instance + !p - 1) / !p in
    let rounds = ref [] in
    let rebalances = ref [] in
    let push stats_list =
      (* Semi-joins at the same tree level run in the same round: their
         loads add per server only if they hash to the same servers; we
         conservatively merge by summing totals and taking the max of
         maxima (each operation uses its own hash seed, spreading
         load). The per-server delivery counts sum element-wise — the
         fault accounting below needs to know what a crashed server
         would have to re-fetch. *)
      match stats_list with
      | [] -> ()
      | _ ->
        let merged =
          List.fold_left
            (fun acc (s, _) ->
              {
                Stats.max_received =
                  max acc.Stats.max_received s.Stats.max_received;
                total_received =
                  acc.Stats.total_received + s.Stats.total_received;
              })
            { Stats.max_received = 0; total_received = 0 }
            stats_list
        in
        let merged_received = Array.make !p 0 in
        List.iter
          (fun (_, received) ->
            Array.iteri
              (fun i k -> merged_received.(i) <- merged_received.(i) + k)
              received)
          stats_list;
        rounds := (merged, merged_received) :: !rounds
    in
    let shared_cols (a : Rel.t) (b : Rel.t) =
      List.filter (fun c -> List.mem c b.Rel.cols) a.Rel.cols
    in
    let exec k =
      match ops.(k) with
      | Up level ->
        (* One level of bottom-up semi-joins, deepest first. *)
        let batch = ref [] in
        let rec visit d node =
          if d = level then
            List.iter
              (fun child ->
                batch :=
                  repartition_stats ?executor ~seed:(seed + (level * 31))
                    ~p:!p node.rel child.rel
                    (shared_cols node.rel child.rel)
                  :: !batch;
                node.rel <- Rel.semijoin node.rel child.rel)
              node.children
          else List.iter (visit (d + 1)) node.children
        in
        List.iter (visit 1) trees;
        push !batch
      | Down level ->
        let batch = ref [] in
        let rec visit d node =
          if d = level then
            List.iter
              (fun child ->
                batch :=
                  repartition_stats ?executor
                    ~seed:(seed + 1000 + (level * 31))
                    ~p:!p child.rel node.rel
                    (shared_cols child.rel node.rel)
                  :: !batch;
                child.rel <- Rel.semijoin child.rel node.rel)
              node.children
          else List.iter (visit (d + 1)) node.children
        in
        List.iter (visit 1) trees;
        push !batch
      | Edge (nid, cid) ->
        let a = get_acc nid and b = get_acc cid in
        push
          [
            repartition_stats ?executor ~seed:(seed + 2000) ~p:!p a b
              (shared_cols a b);
          ];
        acc.(nid) <- Some (Rel.join a b)
    in
    let write w =
      Codec.w_int w !p;
      Codec.w_list w Stats.w_recovery !rebalances;
      Codec.w_list w
        (fun w (rs, received) ->
          Stats.w_round_stats w rs;
          Codec.w_array w Codec.w_int received)
        !rounds;
      Array.iteri
        (fun i node ->
          w_rel w node.rel;
          Codec.w_option w w_rel acc.(i))
        nodes
    in
    let read r =
      p := Codec.r_int r;
      rebalances := Codec.r_list r Stats.r_recovery;
      rounds :=
        Codec.r_list r (fun r ->
            let rs = Stats.r_round_stats r in
            let received = Codec.r_array r Codec.r_int in
            (rs, received));
      Array.iteri
        (fun i node ->
          node.rel <- r_rel r;
          acc.(i) <- Codec.r_option r r_rel)
        nodes
    in
    let shrink ~round ~dead =
      if dead >= 0 && dead < !p && !p > 1 then begin
        (* Analytic, like the rest of GYM's fault model: the dead
           server's ~m/p resident share is rehashed onto the
           survivors; every later repartition hashes mod the new p. *)
        let replayed = (Instance.cardinal instance + !p - 1) / !p in
        rebalances :=
          {
            Stats.round;
            crashed = 1;
            replayed;
            retransmitted = 0;
            duplicates = 0;
            retries = 0;
            speculated = 0;
          }
          :: !rebalances;
        p := !p - 1
      end
    in
    let finish () =
      (* The cross-tree joins are coordinator-local (disjoint column
         sets, no repartition), so they cost no round. *)
      let joined =
        match roots with
        | [] -> { Rel.cols = []; rows = Tuple.Set.singleton [||] }
        | first :: rest ->
          List.fold_left
            (fun a nd -> Rel.join a (get_acc nd.id))
            (get_acc first.id) rest
      in
      let head = Ast.head q in
      let result =
        Tuple.Set.fold
          (fun row acc ->
            let value_of = function
              | Ast.Const c -> c
              | Ast.Var v ->
                let i =
                  match List.find_index (String.equal v) joined.Rel.cols with
                  | Some i -> i
                  | None -> assert false
                in
                row.(i)
            in
            Instance.add
              (Fact.of_list head.Ast.rel (List.map value_of head.Ast.terms))
              acc)
          joined.Rel.rows Instance.empty
      in
      let rounds_in_order = List.rev !rounds in
      (* Crash recovery, modelled analytically (GYM's data path runs on
         the coordinator — only loads are simulated per server): a
         server crashing during round r has the facts repartitioned to
         it that round re-shipped to its replacement; transient compute
         faults cost a retry each; a straggler past the speculation
         budget costs a backup copy. *)
      let recoveries =
        let module Plan = Lamp_faults.Plan in
        let budget = Plan.speculation_budget faults in
        let _, analytic =
          List.fold_left
            (fun (round, acc) ((_ : Stats.round_stats), received) ->
              let crashed = ref 0 in
              let replayed = ref 0 in
              let retries = ref 0 in
              let speculated = ref 0 in
              for s = 0 to Array.length received - 1 do
                if Plan.crashes faults ~round ~server:s then begin
                  incr crashed;
                  replayed := !replayed + received.(s)
                end;
                retries :=
                  !retries
                  + Plan.transient_failures faults ~round
                      ~phase:Plan.Compute ~task:s;
                if budget > 0.0 then begin
                  let stall =
                    Plan.straggle_delay faults ~round ~phase:Plan.Compute
                      ~task:s
                  in
                  if
                    stall > 0.0
                    && (stall > budget
                       || stall = budget
                          && Plan.speculation_tie faults ~round
                               ~phase:Plan.Compute ~task:s
                             = `Backup)
                  then incr speculated
                end
              done;
              let acc =
                if !crashed > 0 || !retries > 0 || !speculated > 0 then
                  {
                    Stats.round;
                    crashed = !crashed;
                    replayed = !replayed;
                    retransmitted = 0;
                    duplicates = 0;
                    retries = !retries;
                    speculated = !speculated;
                  }
                  :: acc
                else acc
              in
              (round + 1, acc))
            (1, []) rounds_in_order
        in
        (* Rebalance records interleave with the per-round analytic
           ones; on the same round the rebalance happened first. *)
        List.stable_sort
          (fun a b -> compare a.Stats.round b.Stats.round)
          (List.rev !rebalances @ List.rev analytic)
      in
      let stats =
        {
          Stats.p = !p;
          initial_max;
          rounds = List.map fst rounds_in_order;
          recoveries;
        }
      in
      (result, stats)
    in
    { nops = Array.length ops; exec; write; read; finish; shrink }

let gym ?seed ?forest ?executor ?(faults = Lamp_faults.Plan.none) ?job ~p q
    instance =
  let g = gym_job ?seed ?forest ?executor ~faults ~p q instance in
  Cluster.supervise ?job ~name:"gym" ~faults
    {
      Lamp_jobs.Supervisor.step =
        (fun k ->
          if k >= g.nops then `Done
          else begin
            g.exec k;
            if k = g.nops - 1 then `Done else `Continue
          end);
      snapshot =
        (fun () ->
          let w = Codec.writer () in
          g.write w;
          Codec.contents w);
      restore =
        (fun ~round:_ payload ->
          let r = Codec.reader payload in
          g.read r;
          Codec.r_end r);
      rebalance =
        (fun ~round ~dead ->
          g.shrink ~round ~dead;
          `Continue);
    };
  g.finish ()
