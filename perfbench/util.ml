(* Timing, statistics, process probes and the result line shared by the
   workloads. Nothing here knows about a particular layer. *)

open Lamp

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- statistics ----------------------------------------------------- *)

(* Linear interpolation between closest ranks (the numpy default). *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

(* ---- operation accounting ------------------------------------------ *)

(* Every operation the benchmark sends is attempted once; a wrong
   answer, a seq/pool mismatch or an exception counts it as failed. *)
type ops = { mutable attempted : int; mutable failed : int }

let ops () = { attempted = 0; failed = 0 }

let fail ops what =
  ops.failed <- ops.failed + 1;
  if ops.failed <= 5 then Printf.eprintf "perfbench: FAILED %s\n%!" what

let check ops what ok = if not ok then fail ops what

(* ---- the timed loop ------------------------------------------------- *)

type sample = {
  wall_ms : float;
  minor : float;  (** minor collections during the call *)
  major : float;  (** major collections during the call *)
  promoted_mw : float;  (** words promoted to the major heap, millions *)
}

(* An operation is prepared untimed ([op ()]), then its returned closure
   is timed; that in turn returns a thunk checking its result, run after
   the clock stops. Every timed call follows a [Gc.compact], so each
   iteration starts from the same heap shape. *)
type op = unit -> unit -> unit -> bool

let timed ops name (op : op) =
  ops.attempted <- ops.attempted + 1;
  match op () with
  | exception e ->
    fail ops (name ^ ": " ^ Printexc.to_string e);
    None
  | run -> (
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    match run () with
    | verify ->
      let wall = now () -. t0 in
      let g1 = Gc.quick_stat () in
      check ops name (try verify () with _ -> false);
      Some
        {
          wall_ms = wall *. 1000.0;
          minor = float_of_int (g1.minor_collections - g0.minor_collections);
          major = float_of_int (g1.major_collections - g0.major_collections);
          promoted_mw = (g1.promoted_words -. g0.promoted_words) /. 1e6;
        }
    | exception e ->
      fail ops (name ^ ": " ^ Printexc.to_string e);
      None)

(* Runs each op once untimed (a warm-up, still checked) unless [warmup]
   is false, then interleaves the ops round-robin for at most [seconds],
   giving every op at least [min_rounds] timed samples. Prints and
   returns the samples per op, in the order of [ops_list]. *)
let interleave ops ?(warmup = true) ~seconds ?(min_rounds = 3) ops_list =
  if warmup then
    List.iter (fun (name, op) -> ignore (timed ops (name ^ " (warm-up)") op)) ops_list;
  let acc = List.map (fun (name, _) -> (name, ref [])) ops_list in
  let t0 = now () in
  let rounds = ref 0 and last_round = ref 0.0 in
  (* A round starts only if it is expected to end within [seconds]. *)
  while !rounds < min_rounds || now () -. t0 +. !last_round <= seconds do
    let r0 = now () in
    List.iter
      (fun (name, op) ->
        match timed ops name op with
        | Some s ->
          let r = List.assoc name acc in
          r := s :: !r
        | None -> ())
      ops_list;
    last_round := now () -. r0;
    incr rounds
  done;
  List.map
    (fun (name, r) ->
      let samples = List.rev !r in
      Printf.printf "  %s ms:%s\n" name
        (String.concat "" (List.map (fun s -> Printf.sprintf " %.1f" s.wall_ms) samples));
      (name, samples))
    acc

let median_wall samples = median (List.map (fun s -> s.wall_ms) samples)

let gc_metrics samples =
  [
    ("gc.minor", median (List.map (fun s -> s.minor) samples), "count");
    ("gc.major", median (List.map (fun s -> s.major) samples), "count");
    ("gc.promoted_mw", median (List.map (fun s -> s.promoted_mw) samples), "Mwords");
  ]

(* Set-up is short and noisy, so it is repeated: at least 5 times and
   until two seconds have passed, set-up and teardown included, at most
   101 times. Returns the last result and the median set-up wall time in
   seconds; [discard] tears down each earlier result before the next
   repetition starts. *)
let setup_median ?(discard = ignore) f =
  let t0 = now () in
  let rec go times =
    let r, dt = time f in
    let times = dt :: times in
    let n = List.length times in
    if n >= 101 || (n >= 5 && now () -. t0 >= 2.0) then (r, median times)
    else begin
      discard r;
      go times
    end
  in
  go []

(* Removes a file or a directory tree, ignoring what is already gone. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ---- process probes ------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> 0.0
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host-noise probes, reported beside the run and never used to
   normalise: a register-only integer loop and a random walk over a
   32 MiB array. A slow run whose memory probe is slow too points at
   host contention rather than at the program. *)
let alu_probe_ms () =
  let x = ref 0x2545F491 in
  let (), dt =
    time (fun () ->
        for _ = 1 to 20_000_000 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17)
        done)
  in
  ignore (Sys.opaque_identity !x);
  dt *. 1000.0

let mem_probe_ms () =
  let n = 1 lsl 22 in
  let a = Array.init n (fun i -> i) in
  let idx = ref 12345 and acc = ref 0 in
  let (), dt =
    time (fun () ->
        for _ = 1 to n do
          idx := (!idx * 1103515245 + 12345) land (n - 1);
          acc := !acc + a.(!idx)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  dt *. 1000.0

let host_metrics () =
  let alu = List.init 3 (fun _ -> alu_probe_ms ()) in
  let mem = List.init 3 (fun _ -> mem_probe_ms ()) in
  [
    ("host.alu_probe_ms", median alu, "ms");
    ("host.mem_probe_ms", median mem, "ms");
  ]

(* Worker count for every pool, client set and connection count: the
   machine's parallelism, capped at 2 to keep the memory footprint of a
   run small. *)
let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---- tracing helpers ------------------------------------------------ *)

module Trace = Obs.Trace

(* Self time per span name: a span's duration minus the part covered by
   spans nested inside it on the same domain. *)
let self_times events =
  let spans =
    List.filter_map
      (function
        | Trace.Span { name; tid; t; dur; _ } -> Some (name, tid, t, dur)
        | _ -> None)
      events
  in
  let contains (_, tid, t, dur) (_, tid', t', dur') =
    tid = tid' && t' >= t && t' +. dur' <= t +. dur && (t', dur') <> (t, dur)
  in
  let direct_children s =
    List.filter
      (fun c ->
        contains s c
        && not (List.exists (fun m -> contains s m && contains m c) spans))
      spans
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((name, _, _, dur) as s) ->
      let covered =
        List.fold_left (fun a (_, _, _, d) -> a +. d) 0.0 (direct_children s)
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (prev +. ((dur -. covered) *. 1000.0)))
    spans;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* ---- the result line ------------------------------------------------ *)

type report = {
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: the machine-readable result. *)
let print_result ops metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then fail ops "a metric is not a finite number";
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ops.failed = 0) (max 1 ops.attempted) ops.failed body
