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

(* Mutable per-node sampling state shared by the strategies; samples
   live in the node's flat bag. *)
type node_state = {
  bag : Sample_bag.t;
  mutable chain : Gibbs.chain option;
  mutable completed : bool;
}

let fresh_states config sampler dag =
  let schema = Model.schema (Gibbs.model sampler) in
  Array.init (Tuple_dag.node_count dag) (fun i ->
      {
        bag =
          Sample_bag.create schema ~capacity:config.Gibbs.samples
            (Tuple_dag.tuple dag i);
        chain = None;
        completed = false;
      })

(* Convergence timeline: one [gibbs.convergence] counter event per
   [convergence_stride target] recorded sweeps, carrying the running
   split-R̂ and min-ESS of the node's chain. Guarded by [Trace.enabled]
   so untraced runs never pay the O(n · cardinality) snapshot. *)
let convergence_stride target = max 8 (target / 8)

let trace_convergence sampler bag node =
  if Trace.enabled () then begin
    let rhat, ess =
      Diagnostics.convergence_snapshot sampler (Sample_bag.tuple bag)
        (Sample_bag.points bag)
    in
    Trace.counter ~id:node ~cat:"gibbs" "gibbs.convergence"
      [
        ("rhat", (if Float.is_finite rhat then rhat else 1e6));
        ("ess", ess);
        ("node", float_of_int node);
      ]
  end

let burn_in config rng c sweeps =
  for _ = 1 to config.Gibbs.burn_in do
    Gibbs.step rng c;
    incr sweeps
  done

let tuple_at_a_time config telemetry rng sampler dag sweeps recorded =
  let states = fresh_states config sampler dag in
  let stride = convergence_stride config.Gibbs.samples in
  Array.iteri
    (fun i st ->
      Trace.complete ~cat:"gibbs"
        ~args:[ ("node", Trace.Int i) ]
        "workload.node"
      @@ fun () ->
      let bag = st.bag in
      let c = Gibbs.chain ~telemetry rng sampler (Sample_bag.tuple bag) in
      burn_in config rng c sweeps;
      for _ = 1 to config.Gibbs.samples do
        Sample_bag.sweep bag rng c;
        incr sweeps;
        incr recorded;
        if Sample_bag.count bag mod stride = 0 then
          trace_convergence sampler bag i
      done;
      st.completed <- true)
    states;
  states

(* Algorithm 3. The active frontier is a FIFO visited round-robin, one
   sweep per visit. Completion cascades: a node finished by sharing also
   shares onward immediately. *)
let tuple_dag_strategy config telemetry rng sampler dag sweeps recorded
    shared =
  let states = fresh_states config sampler dag in
  let stride = convergence_stride config.Gibbs.samples in
  let frontier = Queue.create () in
  List.iter (fun i -> Queue.add i frontier) (Tuple_dag.roots dag);
  let all_parents_done i =
    List.for_all (fun p -> states.(p).completed) (Tuple_dag.parents dag i)
  in
  let rec complete i =
    let st = states.(i) in
    st.completed <- true;
    List.iter
      (fun j ->
        let sj = states.(j) in
        if not sj.completed then begin
          (* ShareSamples(i, j) *)
          let donated = Sample_bag.share ~donor:st.bag sj.bag in
          recorded := !recorded + donated;
          shared := !shared + donated;
          if Sample_bag.is_full sj.bag then complete j
          else if all_parents_done j then Queue.add j frontier
        end)
      (Tuple_dag.children dag i)
  in
  while not (Queue.is_empty frontier) do
    let i = Queue.pop frontier in
    let st = states.(i) in
    if not st.completed then begin
      let c =
        match st.chain with
        | Some c -> c
        | None ->
            let c =
              Gibbs.chain ~telemetry rng sampler (Sample_bag.tuple st.bag)
            in
            burn_in config rng c sweeps;
            st.chain <- Some c;
            c
      in
      Sample_bag.sweep st.bag rng c;
      incr sweeps;
      incr recorded;
      if Sample_bag.count st.bag mod stride = 0 then
        trace_convergence sampler st.bag i;
      if Sample_bag.is_full st.bag then complete i else Queue.add i frontier
    end
  done;
  states

let all_at_a_time config telemetry rng sampler dag max_draws sweeps recorded =
  let states = fresh_states config sampler dag in
  let n = Array.length states in
  if n > 0 then begin
    let arity = Array.length (Tuple_dag.tuple dag 0) in
    let star = Array.make arity None in
    let c = Gibbs.chain ~telemetry rng sampler star in
    burn_in config rng c sweeps;
    let remaining = ref n in
    let draws = ref 0 in
    while !remaining > 0 && !draws < max_draws do
      Gibbs.step rng c;
      let point = Gibbs.current c in
      incr sweeps;
      incr draws;
      Array.iter
        (fun st ->
          if (not st.completed) && Sample_bag.offer st.bag point then begin
            incr recorded;
            if Sample_bag.is_full st.bag then begin
              st.completed <- true;
              decr remaining
            end
          end)
        states
    done;
    (* Tuples whose evidence the global chain never produced get a direct
       chain so every workload member still receives an estimate. *)
    Array.iter
      (fun st ->
        if Sample_bag.count st.bag = 0 then begin
          let c =
            Gibbs.chain ~telemetry rng sampler (Sample_bag.tuple st.bag)
          in
          burn_in config rng c sweeps;
          for _ = 1 to config.Gibbs.samples do
            Sample_bag.sweep st.bag rng c;
            incr sweeps;
            incr recorded
          done
        end;
        st.completed <- true)
      states
  end;
  states

let run ?(config = Gibbs.default_config) ?(strategy = Tuple_dag)
    ?(max_draws = 10_000_000) ?(telemetry = Telemetry.global) ?quality rng
    sampler workload =
  if max_draws < 1 then invalid_arg "Workload.run: max_draws must be positive";
  let dag =
    Trace.complete ~cat:"dag" "dag.build" (fun () -> Tuple_dag.build workload)
  in
  (* Request dedup: when the sampler carries a posterior cache, group the
     raw workload's (tuple, missing attribute) tasks by evidence signature
     and compute each distinct posterior once up front — chain inits then
     hit the cache instead of re-running lattice matching + voting. Runs
     over the raw workload (not the deduplicated DAG) so repeated client
     tuples count toward the fan-out. Purely a wall-time move: cached
     posteriors are bit-identical to the uncached computation, and the
     inference RNG is untouched. *)
  (match Gibbs.posterior_cache sampler with
  | None -> ()
  | Some cache ->
      let model = Gibbs.model sampler in
      let method_ = Gibbs.voting_method sampler in
      ignore
        (Posterior_cache.prewarm cache model ~method_
           ~compute:(fun tup a ->
             Infer_single.infer ~method_ ~telemetry model tup a)
           workload));
  let sweeps = ref 0 and recorded = ref 0 and shared = ref 0 in
  let memo_hits0, memo_misses0 = Gibbs.cache_stats sampler in
  let t0 = Clock.now () in
  let states =
    Telemetry.span telemetry "workload.run" (fun () ->
        match strategy with
        | Tuple_at_a_time ->
            tuple_at_a_time config telemetry rng sampler dag sweeps recorded
        | Tuple_dag ->
            tuple_dag_strategy config telemetry rng sampler dag sweeps
              recorded shared
        | All_at_a_time ->
            all_at_a_time config telemetry rng sampler dag max_draws sweeps
              recorded)
  in
  let wall = Clock.duration ~start:t0 ~stop:(Clock.now ()) in
  Telemetry.add telemetry "workload.sweeps" !sweeps;
  Telemetry.add telemetry "workload.recorded" !recorded;
  Telemetry.add telemetry "workload.shared" !shared;
  Telemetry.observe telemetry "workload.tuples"
    (float_of_int (Tuple_dag.node_count dag));
  let memo_hits1, memo_misses1 = Gibbs.cache_stats sampler in
  let probes = memo_hits1 - memo_hits0 + (memo_misses1 - memo_misses0) in
  if probes > 0 then
    Telemetry.observe telemetry "gibbs.memo_hit_rate"
      (float_of_int (memo_hits1 - memo_hits0) /. float_of_int probes);
  Log.info (fun m ->
      m "%s: %d distinct tuples, %d sweeps (%d recorded, %d shared) in %.3fs"
        (strategy_name strategy)
        (Tuple_dag.node_count dag)
        !sweeps !recorded !shared wall);
  let estimates =
    Array.to_list
      (Array.map
         (fun st -> (Sample_bag.tuple st.bag, Sample_bag.estimate st.bag))
         states)
  in
  (* Quality hook: observation only, after every sample has been drawn —
     the monitor never touches the sampler or the inference RNG. *)
  (match quality with
  | None -> ()
  | Some q ->
      Quality.attach_model q (Gibbs.model sampler);
      Quality.observe_estimates q estimates);
  {
    estimates;
    stats =
      { sweeps = !sweeps; recorded = !recorded; shared = !shared;
        wall_seconds = wall };
  }
