(* Algorithm 3's one executor: a scheduler over the tuple DAG, run on
   the calling domain or on pooled domains.

   The unit of work is one tuple-DAG node. Ready nodes wait on one LIFO
   stack under the coordination mutex: roots are pushed in task-id
   order, and whenever a node completes, subsumees whose parents are all
   done either finish outright on donated samples or are pushed for any
   idle worker to pop. A node whose tuple misses one cell runs
   Algorithm 2's vote instead of a chain. Under a retry policy a chain
   node checks its bag's convergence inside its own task, refilling a
   doubled bag while the check fails, so its children only ever see the
   final bag.

   Determinism: every node draws from its own RNG stream seeded by the
   node's index in the (deterministic) tuple DAG — a stable task
   identity, independent of which domain runs it and of the domain
   count. Sample donation is pull-based: a node collects from its
   parents only once ALL of them have completed, scanning parents in
   ascending node order and each parent's samples oldest-first. Both
   rules together make results bit-identical for a fixed seed across
   any worker count. *)

module Log = (val Logs.src_log (Logs.Src.create "mrsl.workload"))

type strategy = Tuple_at_a_time | Tuple_dag | All_at_a_time

let strategy_name = function
  | Tuple_at_a_time -> "tuple-at-a-time"
  | Tuple_dag -> "tuple-DAG"
  | All_at_a_time -> "all-at-a-time"

type stats = {
  sweeps : int;
  recorded : int;
  shared : int;
  wall_seconds : float;
}

type result = {
  estimates : (Relation.Tuple.t * Gibbs.estimate) list;
  stats : stats;
}

type fault_policy = Fail_fast | Skip_and_report

type tuple_fault = {
  node : int;
  tuple : Relation.Tuple.t;
  error : Error.t;
  upstream : int option;
}

type check = { rhat : float; converged : bool; attempts : int; sweeps : int }

type contained = {
  result : result;
  faults : tuple_fault list;
  checks : (Relation.Tuple.t * check) list;
}

let task_seed ~seed node =
  (* Odd multiplier => injective in [node] modulo the native int width;
     Rng.create finishes the mixing. Stable across worker counts because
     node indices come from the deterministic DAG build. *)
  seed + ((node + 1) * 0x2545F4914F6CDD1D)

(* What a node computes. A tuple with one missing cell takes Algorithm
   2's vote ({!Gibbs.vote}): it subsumes no other tuple, so it is a DAG
   leaf, takes no donations and runs no chain. Every other node fills a
   sample bag; under a retry policy a failed convergence check replaces
   the bag, and [check] holds the node's final reading. *)
type work =
  | Chain of { mutable bag : Sample_bag.t; mutable check : check option }
  | Vote of { mutable answer : Gibbs.estimate option }

type node = {
  tuple : Relation.Tuple.t;
  work : work;
  mutable pending : int;  (* parents not yet completed *)
  mutable completed : bool;
  mutable failed : Error.t option;  (* Skip_and_report containment *)
  mutable failed_upstream : int option;  (* root-cause node when skipped *)
  mutable donors : int list;  (* parents that donated samples (trace flows) *)
}

let fresh_nodes config model dag =
  let schema = Model.schema model in
  Array.init (Tuple_dag.node_count dag) (fun i ->
      let tuple = Tuple_dag.tuple dag i in
      {
        tuple;
        work =
          (if Relation.Tuple.missing_count tuple = 1 then Vote { answer = None }
           else
             Chain
               {
                 bag =
                   Sample_bag.create schema ~capacity:config.Gibbs.samples
                     tuple;
                 check = None;
               });
        pending = 0;
        completed = false;
        failed = None;
        failed_upstream = None;
        donors = [];
      })

type counts = {
  mutable sweeps : int;
  mutable recorded : int;
  mutable shared : int;
}

let vote sampler st =
  match st.work with
  | Vote v -> v.answer <- Some (Gibbs.vote sampler st.tuple)
  | Chain _ -> ()

(* One chain over the fully unknown tuple t*; every draw is offered to
   every chain node it matches. Chain nodes the chain never matched get a
   direct chain so every workload member still receives an estimate;
   single-missing nodes take the vote. *)
let all_at_a_time config telemetry rng sampler max_draws nodes counts =
  let bags =
    Array.of_list
      (List.filter_map
         (fun st ->
           match st.work with Chain { bag; _ } -> Some bag | Vote _ -> None)
         (Array.to_list nodes))
  in
  if bags <> [||] then begin
    let arity = Array.length (Sample_bag.tuple bags.(0)) in
    let burn_in = config.Gibbs.burn_in in
    let c =
      Gibbs.start ~telemetry ~burn_in rng sampler (Array.make arity None)
    in
    counts.sweeps <- counts.sweeps + burn_in;
    let remaining = ref (Array.length bags) in
    let draws = ref 0 in
    while !remaining > 0 && !draws < max_draws do
      Gibbs.step rng c;
      let point = Gibbs.current c in
      counts.sweeps <- counts.sweeps + 1;
      incr draws;
      Array.iter
        (fun bag ->
          if Sample_bag.offer bag point then begin
            counts.recorded <- counts.recorded + 1;
            if Sample_bag.is_full bag then decr remaining
          end)
        bags
    done;
    Array.iter
      (fun bag ->
        if Sample_bag.count bag = 0 then begin
          Gibbs.fill ~telemetry ~burn_in rng sampler bag;
          counts.sweeps <- counts.sweeps + burn_in + config.Gibbs.samples;
          counts.recorded <- counts.recorded + config.Gibbs.samples
        end)
      bags
  end;
  Array.iter
    (fun st ->
      vote sampler st;
      st.completed <- true)
    nodes

type worker_log = {
  mutable sweeps : int;
  mutable recorded : int;
  mutable tasks : int;
  mutable busy_ns : int;  (* time inside task execution *)
  mutable wall_ns : int;  (* the worker body's total wall *)
}

let fresh_log () =
  { sweeps = 0; recorded = 0; tasks = 0; busy_ns = 0; wall_ns = 0 }

(* The scheduler: [samplers.(w)] is worker [w]'s. *)
let schedule config strategy telemetry policy retry seed samplers dag nodes
    counts =
  let n = Array.length nodes and workers = Array.length samplers in
  Telemetry.gauge telemetry "parallel.domains" (float_of_int workers);
  let use_dag = strategy = Tuple_dag in
  let parents i = if use_dag then Tuple_dag.parents dag i else [] in
  let children i = if use_dag then Tuple_dag.children dag i else [] in
  Array.iteri (fun i st -> st.pending <- List.length (parents i)) nodes;
  let target = config.Gibbs.samples in
  (* [coord] guards the DAG bookkeeping, the ready stack, [remaining] and
     [failure]. Idle workers wait on [wake], which is broadcast whenever a
     task becomes ready or the run ends (last node done or skipped, or a
     Fail_fast abort). *)
  let coord = Mutex.create () and wake = Condition.create () in
  let ready = ref [] and remaining = ref n and failure = ref None in
  let push i =
    Trace.flow_start ~cat:"sched" ~id:(Trace.task_flow_id ~seed ~node:i)
      "task.run";
    ready := i :: !ready
  in
  List.iter push (if use_dag then Tuple_dag.roots dag else List.init n Fun.id);
  (* Close the sharing arrows opened when parents donated samples;
     called either when the child task executes or when donations alone
     completed it. *)
  let end_share_flows i =
    if Trace.enabled () then
      List.iter
        (fun p ->
          Trace.flow_end ~cat:"share"
            ~id:(Trace.share_flow_id ~seed ~parent:p ~child:i)
            "share.donate")
        nodes.(i).donors
  in
  (* DAG bookkeeping; call with [coord] held. Marks [i] done, promotes
     children whose last parent just finished: a chain node pulls
     donations (parents in ascending order, samples oldest-first) and
     completes transitively if satisfied; otherwise, and always for a
     voting node, it joins the returned list of newly runnable tasks. *)
  let rec complete i newly =
    let st = nodes.(i) in
    st.completed <- true;
    decr remaining;
    List.fold_left
      (fun newly j ->
        let cj = nodes.(j) in
        if cj.failed <> None then newly
        else begin
          cj.pending <- cj.pending - 1;
          if cj.pending > 0 then newly
          else
            match cj.work with
            | Vote _ -> j :: newly
            | Chain { bag; _ } ->
                List.iter
                  (fun p ->
                    (* A voting node is a leaf, never a donor; a chain
                       node donates from its final bag. *)
                    match nodes.(p).work with
                    | Vote _ -> ()
                    | Chain { bag = donor; _ } ->
                        let given = Sample_bag.share ~donor bag in
                        counts.shared <- counts.shared + given;
                        if given > 0 then begin
                          cj.donors <- p :: cj.donors;
                          Trace.flow_start ~cat:"share"
                            ~args:[ ("samples", Trace.Int given) ]
                            ~id:(Trace.share_flow_id ~seed ~parent:p ~child:j)
                            "share.donate"
                        end)
                  (parents j);
                if Sample_bag.is_full bag then begin
                  end_share_flows j;
                  complete j newly
                end
                else j :: newly
        end)
      newly (children i)
  in
  (* Skip_and_report containment; call with [coord] held. A failed node
     never completes, so none of its children's [pending] counts reach
     zero through it — descendants can therefore never have started, and
     are marked skipped (with the root cause) rather than left hanging.
     Surviving nodes' sample streams are untouched: their own RNG streams
     are seeded by node index and their donations come only from
     ancestors that all completed, so their estimates stay bit-identical
     to a fault-free run at any worker count. *)
  let rec fail_node ?upstream i err =
    let st = nodes.(i) in
    if (not st.completed) && st.failed = None then begin
      st.failed <- Some err;
      st.failed_upstream <- upstream;
      decr remaining;
      let root = Option.value upstream ~default:i in
      List.iter
        (fun j ->
          fail_node ~upstream:root j
            (Error.make Error.Scheduler ~code:"task.upstream_failed"
               ~context:[ ("failed_ancestor", string_of_int root) ]
               (Printf.sprintf "skipped: depends on failed task %d" root)))
        (children i)
    end
  in
  (* Convergence timeline: one [gibbs.convergence] counter event per
     [stride] recorded sweeps, carrying the running split-R̂ and min-ESS
     of the node's chain. Guarded by [Trace.enabled] so untraced runs
     never pay the O(n · cardinality) snapshot. *)
  let stride = max 8 (target / 8) in
  let convergence i bag extra =
    let rhat, ess = Diagnostics.convergence_snapshot bag in
    Trace.counter ~id:i ~cat:"gibbs" "gibbs.convergence"
      ([
         ("rhat", if Float.is_finite rhat then rhat else 1e6);
         ("ess", ess);
         ("node", float_of_int i);
       ]
      @ extra)
  in
  let sample_task st i sampler log =
    if Fault_inject.should_fail_task ~node:i then
      Error.raise_
        (Error.make Error.Scheduler ~code:"fault_inject.task"
           ~context:[ ("node", string_of_int i) ]
           "injected task fault");
    match st.work with
    | Vote _ -> vote sampler st
    | Chain c when Sample_bag.is_full c.bag -> ()
    | Chain c -> (
        let rng = Prob.Rng.create (task_seed ~seed i) in
        let burn_in = config.Gibbs.burn_in in
        (* One chain from [rng] fills [bag] past its donations
           ([Gibbs.fill]'s loop, plus the convergence timeline); returns
           the sweeps it ran. *)
        let fill bag =
          let donated = Sample_bag.count bag in
          let chain =
            Gibbs.start ~telemetry ~burn_in rng sampler (Sample_bag.tuple bag)
          in
          while not (Sample_bag.is_full bag) do
            Gibbs.step rng chain;
            Sample_bag.record bag (Gibbs.current chain);
            if Sample_bag.count bag mod stride = 0 && Trace.enabled () then
              convergence i bag []
          done;
          let drawn = Sample_bag.count bag - donated in
          log.sweeps <- log.sweeps + burn_in + drawn;
          log.recorded <- log.recorded + drawn;
          burn_in + drawn
        in
        match retry with
        | None -> ignore (fill c.bag)
        | Some (policy : Diagnostics.retry_policy) ->
            (* Split-R̂ over the whole bag, or a failure forced by the
               tuple's fault-injection key. While it exceeds 1.1 and the
               budget allows, a fresh chain from the same [rng] fills a
               fresh bag of twice the capacity; donations are not
               re-taken. *)
            let schema = Model.schema (Gibbs.model sampler) in
            let forced =
              Fault_inject.should_force_nonconvergence
                ~key:
                  (Fault_inject.tuple_code
                     ~cards:
                       (Array.init (Relation.Schema.arity schema)
                          (Relation.Schema.cardinality schema))
                     st.tuple)
            in
            Telemetry.incr telemetry "gibbs.checked";
            let rec go attempt capacity sweeps =
              let sweeps =
                sweeps
                + Trace.complete ~cat:"gibbs"
                    ~args:
                      [
                        ("node", Trace.Int i);
                        ("attempt", Trace.Int attempt);
                        ("draws", Trace.Int capacity);
                      ]
                    "gibbs.attempt"
                    (fun () -> fill c.bag)
              in
              let rhat =
                if forced then Float.infinity else Diagnostics.split_rhat c.bag
              in
              if Trace.enabled () then
                convergence i c.bag [ ("attempt", float_of_int attempt) ];
              let next = 2 * capacity in
              if rhat <= 1.1 then
                { rhat; converged = true; attempts = attempt; sweeps }
              else if
                attempt <= policy.max_retries
                && sweeps + burn_in + next <= policy.max_total_sweeps
              then begin
                Telemetry.incr telemetry "gibbs.retries";
                c.bag <- Sample_bag.create schema ~capacity:next st.tuple;
                go (attempt + 1) next sweeps
              end
              else begin
                (* Budget exhausted: keep the last estimate, flagged. *)
                Telemetry.incr telemetry "degrade.nonconverged";
                { rhat; converged = false; attempts = attempt; sweeps }
              end
            in
            c.check <- Some (go 1 target 0))
  in
  let exec log sampler i =
    let st = nodes.(i) in
    Trace.flow_end ~cat:"sched" ~id:(Trace.task_flow_id ~seed ~node:i)
      "task.run";
    end_share_flows i;
    let outcome =
      match
        Trace.complete ~cat:"gibbs"
          ~args:[ ("node", Trace.Int i) ]
          "workload.node"
          (fun () -> sample_task st i sampler log)
      with
      | exception e when policy = Skip_and_report ->
          (* Contain the fault to this tuple: record it, skip its
             dependents, keep the domain pool alive. *)
          Telemetry.incr telemetry "fault.task_failures";
          Some (Error.of_exn e)
      | () -> None
    in
    log.tasks <- log.tasks + 1;
    Mutex.protect coord (fun () ->
        (match outcome with
        | Some err -> fail_node i err
        | None -> List.iter push (complete i []));
        if !ready <> [] || !remaining = 0 then Condition.broadcast wake)
  in
  (* The next ready task, newest first; waits while the stack is empty
     and other workers still run. [None] once every node is done or
     skipped, or after a Fail_fast abort. Call with [coord] held. *)
  let rec next_task () =
    if !remaining = 0 || !failure <> None then None
    else
      match !ready with
      | i :: rest ->
          ready := rest;
          Some i
      | [] ->
          Condition.wait wake coord;
          next_task ()
  in
  let logs = Array.init workers (fun _ -> fresh_log ()) in
  let probes0 = Array.map Gibbs.cache_stats samplers in
  let worker_body wid =
    let sampler = samplers.(wid) in
    let log = logs.(wid) in
    (* Busy-vs-idle stamps on the monotonic clock: [busy_ns] sums task
       execution; everything else in the body's wall is waiting for a
       ready task. Always on — two clock reads per task, observation
       only. *)
    let w0 = Clock.now_ns () in
    (try
       let rec loop () =
         match Mutex.protect coord next_task with
         | None -> ()
         | Some i ->
             let b0 = Clock.now_ns () in
             Fun.protect
               ~finally:(fun () ->
                 log.busy_ns <-
                   log.busy_ns
                   + Clock.duration_ns ~start:b0 ~stop:(Clock.now_ns ()))
               (fun () -> exec log sampler i);
             loop ()
       in
       loop ()
     with e ->
       Mutex.protect coord (fun () ->
           if !failure = None then failure := Some e;
           Condition.broadcast wake));
    log.wall_ns <- Clock.duration_ns ~start:w0 ~stop:(Clock.now_ns ())
  in
  if workers = 1 then worker_body 0
  else Domain_pool.run (Domain_pool.get ()) ~workers worker_body;
  (match !failure with Some e -> raise e | None -> ());
  let sum f = Array.fold_left (fun acc l -> acc + f l) 0 logs in
  counts.sweeps <- sum (fun l -> l.sweeps);
  counts.recorded <- sum (fun l -> l.recorded) + counts.shared;
  Telemetry.add telemetry "parallel.tasks" (sum (fun l -> l.tasks));
  Array.iteri
    (fun w sampler ->
      let h0, m0 = probes0.(w) and h1, m1 = Gibbs.cache_stats sampler in
      let probes = h1 - h0 + (m1 - m0) in
      if probes > 0 then
        Telemetry.observe telemetry "gibbs.memo_hit_rate"
          (float_of_int (h1 - h0) /. float_of_int probes))
    samplers;
  (* Per-worker busy-vs-idle utilization from the task stamps: busy time
     is a subset of the worker body's wall, so each slot's ratio is ≤ 1
     by construction. The snapshot also feeds the labeled
     mrsl_domain_utilization exposition. *)
  Telemetry.add telemetry "sched.busy_ns" (sum (fun l -> l.busy_ns));
  Telemetry.add telemetry "sched.idle_ns"
    (sum (fun l -> max 0 (l.wall_ns - l.busy_ns)));
  Resource.set_utilization
    (Array.to_list
       (Array.mapi
          (fun wid l ->
            let u =
              if l.wall_ns <= 0 then 0.
              else
                Float.min 1. (float_of_int l.busy_ns /. float_of_int l.wall_ns)
            in
            Telemetry.observe telemetry "sched.utilization" u;
            (wid, u))
          logs))

(* [source] is the run's randomness: a caller's RNG ([run]) or a seed
   ([run_contained]). The scheduled strategies take one seed from it;
   all-at-a-time's single chain draws from it directly. *)
let execute ~config ~strategy ~max_draws ~telemetry ~policy ~retry ~quality
    ~domains ~source sampler workload =
  if config.Gibbs.burn_in < 0 || config.Gibbs.samples < 1 then
    invalid_arg "Workload.run: bad burn-in or sample count";
  Telemetry.span telemetry "workload.run" @@ fun () ->
  Trace.complete ~cat:"sched" "workload.run" @@ fun () ->
  let dag =
    Trace.complete ~cat:"dag" "dag.build" (fun () -> Tuple_dag.build workload)
  in
  let n = Tuple_dag.node_count dag in
  let first = sampler () in
  let model = Gibbs.model first in
  let nodes = fresh_nodes config model dag in
  let counts : counts = { sweeps = 0; recorded = 0; shared = 0 } in
  let t0 = Clock.now () in
  (match strategy with
  | All_at_a_time ->
      let rng =
        match source with `Rng rng -> rng | `Seed seed -> Prob.Rng.create seed
      in
      all_at_a_time config telemetry rng first max_draws nodes counts
  | Tuple_at_a_time | Tuple_dag ->
      let seed =
        match source with
        | `Rng rng -> Int64.to_int (Prob.Rng.bits64 rng)
        | `Seed seed -> seed
      in
      let samplers =
        Array.init (max 1 (min domains n)) (fun w ->
            if w = 0 then first else sampler ())
      in
      if n > 0 then
        schedule config strategy telemetry policy retry seed samplers dag nodes
          counts);
  let wall = Clock.duration ~start:t0 ~stop:(Clock.now ()) in
  Telemetry.add telemetry "workload.sweeps" counts.sweeps;
  Telemetry.add telemetry "workload.recorded" counts.recorded;
  Telemetry.add telemetry "workload.shared" counts.shared;
  let voted =
    Array.fold_left
      (fun k st ->
        match st.work with Vote { answer = Some _ } -> k + 1 | _ -> k)
      0 nodes
  in
  Telemetry.add telemetry "workload.voted" voted;
  Telemetry.observe telemetry "workload.tuples" (float_of_int n);
  Log.info (fun m ->
      m
        "%s: %d distinct tuples, %d voted, %d sweeps (%d recorded, %d \
         shared) in %.3fs"
        (strategy_name strategy) n voted counts.sweeps counts.recorded
        counts.shared wall);
  (* Node order is first-seen workload order. Failed and skipped nodes
     are reported in [faults] instead of the estimates. *)
  let estimates = ref [] and faults = ref [] and checks = ref [] in
  for i = n - 1 downto 0 do
    let st = nodes.(i) in
    match st.failed with
    | Some error ->
        faults :=
          {
            node = i;
            tuple = st.tuple;
            error;
            upstream = st.failed_upstream;
          }
          :: !faults
    | None ->
        let est =
          match st.work with
          | Chain { bag; check } ->
              Option.iter (fun c -> checks := (st.tuple, c) :: !checks) check;
              Gibbs.estimate_of_bag bag
          | Vote { answer = Some est } -> est
          | Vote { answer = None } -> assert false
        in
        estimates := (st.tuple, est) :: !estimates
  done;
  let estimates = !estimates and faults = !faults in
  if faults <> [] then begin
    Telemetry.add telemetry "fault.tuples_skipped" (List.length faults);
    Telemetry.add telemetry "fault.upstream_skipped"
      (List.length (List.filter (fun f -> f.upstream <> None) faults))
  end;
  (* Quality hook: observation only, after every sample has been drawn —
     the monitor never touches a sampler or an inference RNG. *)
  (match quality with
  | None -> ()
  | Some q ->
      Quality.attach_model q model;
      Quality.observe_estimates q estimates);
  {
    result =
      {
        estimates;
        stats =
          {
            sweeps = counts.sweeps;
            recorded = counts.recorded;
            shared = counts.shared;
            wall_seconds = wall;
          };
      };
    faults;
    checks = !checks;
  }

let run_contained ?(config = Gibbs.default_config) ?(strategy = Tuple_dag)
    ?method_ ?memoize ?domains ?(telemetry = Telemetry.global)
    ?(policy = Fail_fast) ?retry ?quality ~seed model workload =
  let domains =
    match domains with
    | Some d when d < 1 ->
        invalid_arg "Workload.run_contained: domains must be >= 1"
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  (match retry with
  | None -> ()
  | Some (p : Diagnostics.retry_policy) ->
      if strategy = All_at_a_time then
        invalid_arg
          "Workload.run_contained: retry needs tuple-at-a-time or tuple-DAG";
      if p.max_retries < 0 then
        invalid_arg "Workload.run_contained: max_retries must be >= 0";
      if p.max_total_sweeps < 1 then
        invalid_arg "Workload.run_contained: max_total_sweeps must be >= 1");
  execute ~config ~strategy ~max_draws:10_000_000 ~telemetry ~policy ~retry
    ~quality ~domains ~source:(`Seed seed)
    (fun () -> Gibbs.sampler ?method_ ?memoize model)
    workload

let run ?(config = Gibbs.default_config) ?(strategy = Tuple_dag)
    ?(max_draws = 10_000_000) ?(telemetry = Telemetry.global) ?quality rng
    sampler workload =
  if max_draws < 1 then invalid_arg "Workload.run: max_draws must be positive";
  (execute ~config ~strategy ~max_draws ~telemetry ~policy:Fail_fast
     ~retry:None ~quality ~domains:1 ~source:(`Rng rng)
     (fun () -> sampler)
     workload)
    .result
