(* Work-stealing multicore workload inference.

   The unit of work is one tuple-DAG node (Algorithm 3 task), not a
   static chunk: roots are dealt round-robin across per-worker deques in
   task-id order, and whenever a node completes, subsumees whose parents
   are all done either finish outright on donated samples or are pushed
   onto the completing worker's deque — stealable by any idle domain, so
   no domain serializes behind the slowest static chunk.

   Determinism: every node draws from its own RNG stream seeded by the
   node's index in the (deterministic) tuple DAG — a stable task
   identity, independent of which domain runs it, of the steal order,
   and of the domain count. Sample donation is pull-based: a node
   collects from its parents only once ALL of them have completed,
   scanning parents in ascending node order and each parent's samples
   oldest-first. Both rules together make results bit-identical for a
   fixed seed across any [domains] setting. *)

let task_seed ~seed node =
  (* Odd multiplier => injective in [node] modulo the native int width;
     Rng.create finishes the mixing. Stable across domain counts because
     node indices come from the deterministic DAG build, not from chunk
     or bucket positions. *)
  seed + ((node + 1) * 0x2545F4914F6CDD1D)

(* --- per-domain sampler cache --------------------------------------- *)

(* Conditional-CPD memo tables are the dominant inference cache (the
   per-ensemble caching of Section I-B); rebuilding them cold per run was
   the seed's biggest waste. Samplers live in domain-local storage keyed
   by the model's physical identity, so a pool domain reuses its memo —
   hit/miss counters included — across tasks and across Parallel.run
   calls against the same model. *)
module Sampler_cache = struct
  type entry = {
    model : Model.t;
    method_ : Voting.method_ option;
    memoize : bool option;
    pcache : Posterior_cache.t option;
    kernel : bool;  (* Kernel.enabled at creation: a sampler whose memo
                       was filled under one engine setting is never
                       reused under the other, so toggling --kernel
                       between runs cannot blur benchmarks *)
    sampler : Gibbs.sampler;
  }

  let max_entries = 4

  let key : entry list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl

  let same_pcache a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false

  let get ?method_ ?memoize ?pcache model =
    let cache = Domain.DLS.get key in
    let kernel = Kernel.enabled () in
    match
      List.find_opt
        (fun e ->
          e.model == model && e.method_ = method_ && e.memoize = memoize
          && e.kernel = kernel
          && same_pcache e.pcache pcache)
        !cache
    with
    | Some e -> e.sampler
    | None ->
        let sampler = Gibbs.sampler ?method_ ?memoize ?cache:pcache model in
        cache :=
          { model; method_; memoize; pcache; kernel; sampler }
          :: take (max_entries - 1) !cache;
        sampler
end

(* --- scheduler ------------------------------------------------------ *)

type fault_policy = Fail_fast | Skip_and_report

type tuple_fault = {
  node : int;
  tuple : Relation.Tuple.t;
  error : Error.t;
  upstream : int option;
}

type contained = {
  result : Workload.result;
  faults : tuple_fault list;
}

type node = {
  bag : Sample_bag.t;
  mutable pending : int;  (* parents not yet completed *)
  mutable completed : bool;
  mutable failed : Error.t option;  (* Skip_and_report containment *)
  mutable failed_upstream : int option;  (* root-cause node when skipped *)
  mutable donors : int list;  (* parents that donated samples (trace flows) *)
}

type worker_log = {
  mutable sweeps : int;
  mutable recorded : int;
  mutable tasks : int;
  mutable steals : int;
  mutable max_depth : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable busy_ns : int;  (* time inside task execution *)
  mutable wall_ns : int;  (* the worker body's total wall *)
}

let fresh_log () =
  {
    sweeps = 0;
    recorded = 0;
    tasks = 0;
    steals = 0;
    max_depth = 0;
    memo_hits = 0;
    memo_misses = 0;
    busy_ns = 0;
    wall_ns = 0;
  }

let empty_result () =
  {
    Workload.estimates = [];
    stats = { sweeps = 0; recorded = 0; shared = 0; wall_seconds = 0. };
  }

let run_contained ?(config = Gibbs.default_config)
    ?(strategy = Workload.Tuple_dag) ?method_ ?memoize ?cache ?domains
    ?(telemetry = Telemetry.global) ?(policy = Fail_fast) ?quality
    ?request_flow ~seed model workload =
  let requested =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Parallel.run: domains must be >= 1";
        d
    | None -> Domain.recommended_domain_count ()
  in
  if config.Gibbs.burn_in < 0 || config.Gibbs.samples < 1 then
    invalid_arg "Parallel.run: bad burn-in or sample count";
  match strategy with
  | Workload.All_at_a_time ->
      (* One chain over the fully unknown tuple: inherently sequential.
         Run it on the calling domain with the caller-visible seed.
         Per-task containment does not apply — there is one task.
         [Workload.run] performs the posterior-cache prewarm itself. *)
      let sampler = Sampler_cache.get ?method_ ?memoize ?pcache:cache model in
      let result =
        Workload.run ~config ~strategy ~telemetry ?quality
          (Prob.Rng.create seed)
          sampler workload
      in
      { result; faults = [] }
  | Workload.Tuple_at_a_time | Workload.Tuple_dag ->
      Telemetry.span telemetry "parallel.run" @@ fun () ->
      Trace.complete ~cat:"sched"
        ~args:[ ("seed", Trace.Int seed) ]
        "parallel.run"
      @@ fun () ->
      let dag =
        Trace.complete ~cat:"dag" "dag.build" (fun () ->
            Tuple_dag.build workload)
      in
      let n = Tuple_dag.node_count dag in
      if n = 0 then { result = empty_result (); faults = [] }
      else begin
        let workers = max 1 (min requested n) in
        Telemetry.gauge telemetry "parallel.domains" (float_of_int workers);
        (* Request dedup: compute each distinct evidence-signature
           posterior once on the orchestrating domain before any task is
           dealt; workers' chain inits then hit the shared cache. Over the
           raw workload (repeated client tuples count toward fan-out), on
           top of — not replacing — the tuple-DAG sample sharing below.
           Observation-only for sampling: cached posteriors are
           bit-identical, and per-task RNG streams are untouched. *)
        (match cache with
        | None -> ()
        | Some c ->
            let method_v = Option.value method_ ~default:Voting.best_averaged in
            ignore
              (Posterior_cache.prewarm c model ~method_:method_v
                 ~compute:(fun tup a ->
                   Infer_single.infer ~method_:method_v ~telemetry model tup a)
                 workload));
        let use_dag = strategy = Workload.Tuple_dag in
        let parents i = if use_dag then Tuple_dag.parents dag i else [] in
        let children i = if use_dag then Tuple_dag.children dag i else [] in
        let target = config.Gibbs.samples in
        let schema = Model.schema model in
        let nodes =
          Array.init n (fun i ->
              {
                bag =
                  Sample_bag.create schema ~capacity:target
                    (Tuple_dag.tuple dag i);
                pending = List.length (parents i);
                completed = false;
                failed = None;
                failed_upstream = None;
                donors = [];
              })
        in
        let coord = Mutex.create () in
        let remaining = Atomic.make n in
        let abort = Atomic.make false in
        let failure = ref None in
        let shared = ref 0 in
        let deques = Array.init workers (fun _ -> Wsdeque.create ()) in
        let initial =
          if use_dag then Tuple_dag.roots dag else List.init n Fun.id
        in
        List.iteri
          (fun k i ->
            Trace.flow_start ~cat:"sched"
              ~id:(Trace.task_flow_id ~seed ~node:i)
              "task.run";
            Wsdeque.push deques.(k mod workers) i)
          initial;
        (* Worker wid's Perfetto track (its domain id); -1 until the
           worker starts. Used to attach steal-arrow tails to the victim's
           track even though the thief records the event. *)
        let tracks = Array.make workers (-1) in
        (* Close the sharing arrows opened when parents donated samples;
           called either when the child task executes or when donations
           alone completed it. *)
        let end_share_flows i =
          if Trace.enabled () then
            List.iter
              (fun p ->
                Trace.flow_end ~cat:"share"
                  ~id:(Trace.share_flow_id ~seed ~parent:p ~child:i)
                  "share.donate")
              nodes.(i).donors
        in
        (* DAG bookkeeping; call with [coord] held. Marks [i] done,
           promotes children whose last parent just finished: each pulls
           donations (parents in ascending order, samples oldest-first),
           completes transitively if satisfied, otherwise joins the
           returned list of newly runnable tasks. *)
        let rec complete i newly =
          let st = nodes.(i) in
          st.completed <- true;
          Atomic.decr remaining;
          List.fold_left
            (fun newly j ->
              let cj = nodes.(j) in
              if cj.failed <> None then newly
              else begin
              cj.pending <- cj.pending - 1;
              if cj.pending > 0 then newly
              else begin
                List.iter
                  (fun p ->
                    let given = Sample_bag.share ~donor:nodes.(p).bag cj.bag in
                    shared := !shared + given;
                    if given > 0 then begin
                      cj.donors <- p :: cj.donors;
                      Trace.flow_start ~cat:"share"
                        ~args:[ ("samples", Trace.Int given) ]
                        ~id:(Trace.share_flow_id ~seed ~parent:p ~child:j)
                        "share.donate"
                    end)
                  (parents j);
                if Sample_bag.is_full cj.bag then begin
                  end_share_flows j;
                  complete j newly
                end
                else j :: newly
              end
              end)
            newly (children i)
        in
        (* Skip_and_report containment; call with [coord] held. A failed
           node never completes, so none of its children's [pending]
           counts reach zero through it — descendants can therefore never
           have started, and are marked skipped (with the root cause)
           rather than left hanging. Surviving nodes' sample streams are
           untouched: their own RNG streams are seeded by node index and
           their donations come only from ancestors that all completed,
           so their estimates stay bit-identical to a fault-free run at
           any domain count. *)
        let rec fail_node ?upstream i err =
          let st = nodes.(i) in
          if (not st.completed) && st.failed = None then begin
            st.failed <- Some err;
            st.failed_upstream <- upstream;
            Atomic.decr remaining;
            let root = Option.value upstream ~default:i in
            List.iter
              (fun j ->
                fail_node ~upstream:root j
                  (Error.make Error.Scheduler ~code:"task.upstream_failed"
                     ~context:[ ("failed_ancestor", string_of_int root) ]
                     (Printf.sprintf
                        "skipped: depends on failed task %d" root)))
              (children i)
          end
        in
        let sample_task st i sampler log =
          if Fault_inject.should_fail_task ~node:i then
            Error.raise_
              (Error.make Error.Scheduler ~code:"fault_inject.task"
                 ~context:[ ("node", string_of_int i) ]
                 "injected task fault");
          let bag = st.bag in
          if not (Sample_bag.is_full bag) then begin
            let rng = Prob.Rng.create (task_seed ~seed i) in
            let c = Gibbs.chain ~telemetry rng sampler (Sample_bag.tuple bag) in
            for _ = 1 to config.Gibbs.burn_in do
              Gibbs.step rng c;
              log.sweeps <- log.sweeps + 1
            done;
            let stride = max 8 (target / 8) in
            while not (Sample_bag.is_full bag) do
              Sample_bag.sweep bag rng c;
              log.sweeps <- log.sweeps + 1;
              log.recorded <- log.recorded + 1;
              if Sample_bag.count bag mod stride = 0 && Trace.enabled () then
              begin
                let rhat, ess =
                  Diagnostics.convergence_snapshot sampler
                    (Sample_bag.tuple bag) (Sample_bag.points bag)
                in
                Trace.counter ~id:i ~cat:"gibbs" "gibbs.convergence"
                  [
                    ("rhat", (if Float.is_finite rhat then rhat else 1e6));
                    ("ess", ess);
                    ("node", float_of_int i);
                  ]
              end
            done
          end
        in
        let exec log sampler dq i =
          let st = nodes.(i) in
          Trace.flow_end ~cat:"sched"
            ~id:(Trace.task_flow_id ~seed ~node:i)
            "task.run";
          (* A serving request's flow arrow terminates on the worker that
             actually runs its tuple — node 0 of the single-tuple workload
             the engine submits per distinct request tuple. *)
          (match request_flow with
          | Some id when i = 0 -> Trace.flow_end ~cat:"serve" ~id "serve.request"
          | _ -> ());
          end_share_flows i;
          match
            Trace.complete ~cat:"gibbs"
              ~args:[ ("node", Trace.Int i) ]
              "parallel.task"
              (fun () -> sample_task st i sampler log)
          with
          | exception e when policy = Skip_and_report ->
              (* Contain the fault to this tuple: record it, skip its
                 dependents, keep the domain pool alive. *)
              log.tasks <- log.tasks + 1;
              Telemetry.incr telemetry "fault.task_failures";
              let err = Error.of_exn e in
              Mutex.lock coord;
              (match fail_node i err with
              | () -> Mutex.unlock coord
              | exception e2 ->
                  Mutex.unlock coord;
                  raise e2)
          | () ->
              log.tasks <- log.tasks + 1;
              Mutex.lock coord;
              let newly =
                match complete i [] with
                | newly -> newly
                | exception e ->
                    Mutex.unlock coord;
                    raise e
              in
              Mutex.unlock coord;
              List.iter
                (fun j ->
                  Trace.flow_start ~cat:"sched"
                    ~id:(Trace.task_flow_id ~seed ~node:j)
                    "task.run";
                  Wsdeque.push dq j)
                newly;
              log.max_depth <- max log.max_depth (Wsdeque.length dq)
        in
        let logs = Array.init workers (fun _ -> fresh_log ()) in
        let worker_body wid =
          tracks.(wid) <- (Domain.self () :> int);
          let sampler = Sampler_cache.get ?method_ ?memoize ?pcache:cache model in
          let h0, m0 = Gibbs.cache_stats sampler in
          let log = logs.(wid) in
          let dq = deques.(wid) in
          let next_task () =
            match Wsdeque.pop dq with
            | Some _ as t -> t
            | None ->
                let rec scan k =
                  if k >= workers then None
                  else
                    let victim = (wid + k) mod workers in
                    match Wsdeque.steal deques.(victim) with
                    | Some j as t ->
                        log.steals <- log.steals + 1;
                        if Trace.enabled () then begin
                          (* The thief records both ends of the arrow; the
                             tail is drawn on the victim's track. The flow
                             id is deterministic (seed × node identity). *)
                          let sid = Trace.steal_flow_id ~seed ~node:j in
                          let vt = tracks.(victim) in
                          Trace.flow_start ~cat:"steal"
                            ?track:(if vt >= 0 then Some vt else None)
                            ~args:
                              [
                                ("victim", Trace.Int victim);
                                ("thief", Trace.Int wid);
                                ("node", Trace.Int j);
                              ]
                            ~id:sid "steal";
                          Trace.flow_end ~cat:"steal" ~id:sid "steal"
                        end;
                        t
                    | None -> scan (k + 1)
                in
                scan 1
          in
          (* Busy-vs-idle stamps on the monotonic clock: [busy_ns] sums
             task execution; everything else in the body's wall is steal
             scans and [cpu_relax] idling. Always on — two clock reads
             per task, observation only, so monitored and unmonitored
             runs stay bit-identical either way. *)
          let w0 = Clock.now_ns () in
          (try
             while (not (Atomic.get abort)) && Atomic.get remaining > 0 do
               match next_task () with
               | Some i ->
                   let b0 = Clock.now_ns () in
                   let finish () =
                     log.busy_ns <-
                       log.busy_ns
                       + Clock.duration_ns ~start:b0 ~stop:(Clock.now_ns ())
                   in
                   (match exec log sampler dq i with
                   | () -> finish ()
                   | exception e ->
                       finish ();
                       raise e)
               | None -> Domain.cpu_relax ()
             done
           with e ->
             Mutex.lock coord;
             if !failure = None then failure := Some e;
             Mutex.unlock coord;
             Atomic.set abort true);
          log.wall_ns <- Clock.duration_ns ~start:w0 ~stop:(Clock.now_ns ());
          let h1, m1 = Gibbs.cache_stats sampler in
          log.memo_hits <- h1 - h0;
          log.memo_misses <- m1 - m0
        in
        let t0 = Clock.now () in
        if workers = 1 then worker_body 0
        else Domain_pool.run (Domain_pool.get ()) ~workers worker_body;
        (match !failure with Some e -> raise e | None -> ());
        let wall = Clock.duration ~start:t0 ~stop:(Clock.now ()) in
        (* Merge: node order (first-seen workload order), exactly like the
           sequential strategies. Failed/skipped nodes are excluded from
           the estimates and reported in [faults] instead. *)
        let estimates = ref [] and faults = ref [] in
        for i = n - 1 downto 0 do
          let st = nodes.(i) in
          match st.failed with
          | Some error ->
              faults :=
                {
                  node = i;
                  tuple = Sample_bag.tuple st.bag;
                  error;
                  upstream = st.failed_upstream;
                }
                :: !faults
          | None ->
              estimates :=
                (Sample_bag.tuple st.bag, Sample_bag.estimate st.bag)
                :: !estimates
        done;
        let estimates = !estimates and faults = !faults in
        if faults <> [] then begin
          Telemetry.add telemetry "fault.tuples_skipped" (List.length faults);
          Telemetry.add telemetry "fault.upstream_skipped"
            (List.length (List.filter (fun f -> f.upstream <> None) faults))
        end;
        let sum f = Array.fold_left (fun acc l -> acc + f l) 0 logs in
        let sweeps = sum (fun l -> l.sweeps) in
        let recorded = sum (fun l -> l.recorded) + !shared in
        Telemetry.add telemetry "parallel.tasks" (sum (fun l -> l.tasks));
        Telemetry.add telemetry "parallel.steals" (sum (fun l -> l.steals));
        Telemetry.add telemetry "parallel.sweeps" sweeps;
        Telemetry.add telemetry "parallel.shared" !shared;
        Array.iter
          (fun l ->
            Telemetry.observe telemetry "parallel.queue_depth.max"
              (float_of_int l.max_depth);
            let probes = l.memo_hits + l.memo_misses in
            if probes > 0 then
              Telemetry.observe telemetry "gibbs.memo_hit_rate"
                (float_of_int l.memo_hits /. float_of_int probes))
          logs;
        (* Per-worker busy-vs-idle utilization from the task stamps:
           busy time is a subset of the worker body's wall, so each
           slot's ratio is ≤ 1 by construction. The snapshot also feeds
           the labeled mrsl_domain_utilization exposition. *)
        Telemetry.add telemetry "sched.busy_ns"
          (sum (fun l -> l.busy_ns));
        Telemetry.add telemetry "sched.idle_ns"
          (sum (fun l -> max 0 (l.wall_ns - l.busy_ns)));
        let utilization =
          Array.to_list
            (Array.mapi
               (fun wid l ->
                 let u =
                   if l.wall_ns <= 0 then 0.
                   else
                     Float.min 1.
                       (float_of_int l.busy_ns /. float_of_int l.wall_ns)
                 in
                 Telemetry.observe telemetry "sched.utilization" u;
                 (wid, u))
               logs)
        in
        Resource.set_utilization utilization;
        (* Quality hook: pure observation of the merged estimates, after
           all sampling and on the orchestrating domain only — workers
           never see the monitor, so monitored runs stay bit-identical. *)
        (match quality with
        | None -> ()
        | Some q ->
            Quality.attach_model q model;
            Quality.observe_estimates q estimates);
        {
          result =
            {
              Workload.estimates;
              stats =
                { sweeps; recorded; shared = !shared; wall_seconds = wall };
            };
          faults;
        }
      end

let run ?config ?strategy ?method_ ?memoize ?cache ?domains ?telemetry
    ?quality ~seed model workload =
  (run_contained ?config ?strategy ?method_ ?memoize ?cache ?domains
     ?telemetry ~policy:Fail_fast ?quality ~seed model workload)
    .result

(* Retained for callers that want the seed's subsumption-aware static
   partition (benchmarks compare against it); no longer used by [run]. *)
let partition chunks workload =
  let sorted =
    List.sort
      (fun a b ->
        Mining.Itemset.compare (Mining.Itemset.of_tuple a)
          (Mining.Itemset.of_tuple b))
      workload
  in
  let buckets = Array.make chunks [] in
  List.iteri
    (fun i tup -> buckets.(i mod chunks) <- tup :: buckets.(i mod chunks))
    sorted;
  Array.to_list buckets |> List.filter (fun b -> b <> [])
