(* Shared by the three workloads: the one clock, order statistics, the
   fixed networks, single-missing tasks and their exact-posterior error,
   host-noise readings, and result printing. *)

module Json = Mrsl.Telemetry.Json

(* Every timer reads the monotonic [Mrsl.Clock]. *)
let now_ns = Mrsl.Clock.now_ns

let seconds_since start =
  float_of_int (Mrsl.Clock.duration_ns ~start ~stop:(now_ns ())) /. 1e9

let timed f =
  let start = now_ns () in
  let r = f () in
  (r, seconds_since start)

(* Linear interpolation between order statistics (the usual "type 7"). *)
let quantile q xs =
  let a = Array.of_list xs in
  if a = [||] then invalid_arg "quantile: no samples";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i >= Array.length a - 1 then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Named samples of a traced pipeline, each summarised by its median. *)
module Samples = struct
  let create () = Hashtbl.create 16

  let add t name v =
    Hashtbl.replace t name
      (v :: Option.value ~default:[] (Hashtbl.find_opt t name))

  let median t name = median (Hashtbl.find t name)
end

let mean xs =
  List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Run [f i] for i = 0, 1, ... until [seconds] have passed, at least
   [min] times; returns the number of calls. *)
let repeat ?(min = 1) ~seconds f =
  let start = now_ns () in
  let rec go i =
    if i < min || seconds_since start < seconds then begin
      f i;
      go (i + 1)
    end
    else i
  in
  go 0

(* Set-up is timed [reps] times, each from a compacted heap, and reported
   as the median, so one slow start does not move [setup_s]. Every result
   but the last is handed to [release]. *)
let set_up ?(reps = 9) ?(release = ignore) f =
  let rec go n acc =
    Gc.compact ();
    let r, dt = timed f in
    if n = 1 then (r, median (dt :: acc))
    else begin
      release r;
      go (n - 1) (dt :: acc)
    end
  in
  go reps []

(* A workload is one fixed distribution: the catalog network's CPTs come
   from this constant, and [--seed] only draws the rows, tuples and
   requests from it. *)
let network_seed = 2011

let network id =
  Bayesnet.Network.generate
    (Prob.Rng.create network_seed)
    (Bayesnet.Catalog.find id).topology

(* An independent stream of the run's seed for one purpose. *)
let rng ~seed purpose k = Prob.Rng.create (Hashtbl.hash (seed, purpose, k))

let learn_params =
  {
    Mrsl.Model.default_params with
    support_threshold = 0.01;
    max_itemsets = 1000;
    miner = Mrsl.Model.Apriori;
  }

let learn_params_json =
  [
    ("theta", Json.Float learn_params.support_threshold);
    ("max_itemsets", Json.Int learn_params.max_itemsets);
    ("miner", Json.String "apriori");
    ("network_seed", Json.Int network_seed);
  ]

(* Single-missing inference tasks: a fresh draw from the network with one
   uniformly chosen attribute blanked. *)
let single_missing_tasks net rng n =
  let arity = Bayesnet.Topology.size (Bayesnet.Network.topology net) in
  Array.init n (fun _ ->
      let tup =
        Relation.Tuple.of_point (Bayesnet.Network.sample_point rng net)
      in
      let a = Prob.Rng.int rng arity in
      tup.(a) <- None;
      (tup, a))

(* Mean total-variation distance of the model's single-missing estimates
   to the network's exact posteriors. *)
let mean_tv_single net model tasks =
  mean
    (Array.to_list
       (Array.map
          (fun (tup, a) ->
            Prob.Divergence.total_variation
              (Mrsl.Infer_single.infer model tup a)
              (Bayesnet.Network.posterior_single net tup a))
          tasks))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let alloc_mb f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. 1048576.)

(* Host noise: /proc/stat steal and the CPU time of this process and of
   its reaped children (the daemon). Recorded beside the metrics to
   explain outliers; never used to drop or rerun a run. *)
type host = { jiffies : (int * int) option; times : Unix.process_times;
              wall : int }

let proc_stat () =
  try
    match In_channel.with_open_text "/proc/stat" In_channel.input_line with
    | Some line when String.starts_with ~prefix:"cpu " line -> (
        match
          String.split_on_char ' ' line
          |> List.filter (fun s -> s <> "")
          |> List.tl |> List.map int_of_string
        with
        | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal
          :: _ ->
            Some
              ( steal,
                user + nice + system + idle + iowait + irq + softirq + steal )
        | _ -> None)
    | _ -> None
  with Sys_error _ | Failure _ -> None

let host_mark () = { jiffies = proc_stat (); times = Unix.times (); wall = now_ns () }

let host_json start =
  let stop = host_mark () in
  let steal =
    match (start.jiffies, stop.jiffies) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
        Json.Float (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
    | _ -> Json.Null
  in
  let t0 = start.times and t1 = stop.times in
  Json.Obj
    [
      ("steal_share", steal);
      ( "bench_cpu_s",
        Json.Float
          (t1.tms_utime +. t1.tms_stime -. t0.tms_utime -. t0.tms_stime) );
      ( "daemon_cpu_s",
        Json.Float
          (t1.tms_cutime +. t1.tms_cstime -. t0.tms_cutime -. t0.tms_cstime) );
      ( "wall_s",
        Json.Float
          (float_of_int (Mrsl.Clock.duration_ns ~start:start.wall ~stop:stop.wall)
          /. 1e9) );
    ]

(* What one run of a workload reports. [metrics] are (name, value, unit)
   triples; [failed] counts attempted operations whose output check
   failed. *)
type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit_) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
       metrics)

let print_json j = print_endline (Json.to_string ~pretty:false j)

(* One reconciliation line: the layer costs against the end-to-end
   median they should add up to. *)
let reconcile workload ~unit_ ~e2e_name ~e2e parts =
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
  Printf.printf
    "reconcile %s: layers %.4g %s (%s) vs %s %.4g %s, residual %.4g %s \
     (%.1f%%)\n"
    workload sum unit_
    (String.concat " + "
       (List.map (fun (name, v) -> Printf.sprintf "%s %.4g" name v) parts))
    e2e_name e2e unit_ (e2e -. sum) unit_
    (100. *. (e2e -. sum) /. e2e)
