let time f =
  let t0 = Mrsl.Clock.now () in
  let r = f () in
  let dt = Mrsl.Clock.duration ~start:t0 ~stop:(Mrsl.Clock.now ()) in
  Mrsl.Telemetry.observe Mrsl.Telemetry.global "experiments.timed_seconds" dt;
  (r, dt)

type prepared = {
  entry : Bayesnet.Catalog.entry;
  network : Bayesnet.Network.t;
  train : Relation.Instance.t;
  test_points : int array array;
}

let prepare rng (scale : Scale.t) (entry : Bayesnet.Catalog.entry) ~train_size
    =
  if train_size < 10 then invalid_arg "Framework.prepare: train_size too small";
  let total = int_of_float (Float.ceil (float_of_int train_size /. 0.9)) in
  List.concat_map
    (fun _ ->
      let inst_rng = Prob.Rng.split rng in
      let network =
        Bayesnet.Network.generate inst_rng ~alpha:scale.alpha entry.topology
      in
      let data = Bayesnet.Network.sample_instance inst_rng network total in
      List.init scale.splits (fun _ ->
          let split_rng = Prob.Rng.split inst_rng in
          let train, test =
            Relation.Instance.split split_rng ~train_fraction:0.9 data
          in
          {
            entry;
            network;
            train;
            test_points = Relation.Instance.complete_part test;
          }))
    (List.init scale.instances Fun.id)

let learn_timed prepared ~support =
  let params =
    { Mrsl.Model.default_params with support_threshold = support }
  in
  time (fun () -> Mrsl.Model.learn ~params prepared.train)

type accuracy = { kl : float; top1 : float; count : int }

let merge accs =
  let count = List.fold_left (fun n a -> n + a.count) 0 accs in
  if count = 0 then { kl = 0.; top1 = 0.; count = 0 }
  else
    let weighted f =
      List.fold_left (fun s a -> s +. (f a *. float_of_int a.count)) 0. accs
      /. float_of_int count
    in
    { kl = weighted (fun a -> a.kl); top1 = weighted (fun a -> a.top1); count }

(* Mask one uniformly chosen attribute of each test point; cap the number
   of evaluation tuples. *)
let single_tasks rng prepared ~max_tuples =
  let arity =
    Bayesnet.Topology.size (Bayesnet.Network.topology prepared.network)
  in
  let points = prepared.test_points in
  let n = min max_tuples (Array.length points) in
  List.init n (fun i ->
      let a = Prob.Rng.int rng arity in
      let tup = Relation.Tuple.of_point points.(i) in
      tup.(a) <- None;
      (tup, a))

let eval_single rng prepared model ~methods ~max_tuples =
  let tasks = single_tasks rng prepared ~max_tuples in
  let per_method =
    List.map
      (fun m ->
        let kl = ref 0. and top1 = ref 0 and count = ref 0 in
        List.iter
          (fun (tup, a) ->
            let truth =
              Bayesnet.Network.posterior_single prepared.network tup a
            in
            let est = Mrsl.Infer_single.infer ~method_:m model tup a in
            kl := !kl +. Prob.Divergence.kl truth est;
            if Prob.Dist.mode truth = Prob.Dist.mode est then incr top1;
            incr count)
          tasks;
        let c = float_of_int (max 1 !count) in
        ( m,
          { kl = !kl /. c; top1 = float_of_int !top1 /. c; count = !count } ))
      methods
  in
  per_method

let single_inference_time rng prepared model ~batch =
  let arity =
    Bayesnet.Topology.size (Bayesnet.Network.topology prepared.network)
  in
  let points = prepared.test_points in
  let n_points = Array.length points in
  if n_points = 0 then invalid_arg "Framework.single_inference_time: no test points";
  let tasks =
    List.init batch (fun i ->
        let a = Prob.Rng.int rng arity in
        let tup = Relation.Tuple.of_point points.(i mod n_points) in
        tup.(a) <- None;
        (tup, a))
  in
  let (), seconds =
    time (fun () ->
        List.iter
          (fun (tup, a) -> ignore (Mrsl.Infer_single.infer model tup a))
          tasks)
  in
  seconds

let eval_joint rng prepared model ~missing ~samples ~burn_in ~max_tuples =
  let arity =
    Bayesnet.Topology.size (Bayesnet.Network.topology prepared.network)
  in
  if missing < 1 || missing >= arity then
    invalid_arg "Framework.eval_joint: missing count out of range";
  let points = prepared.test_points in
  let n = min max_tuples (Array.length points) in
  let sampler = Mrsl.Gibbs.sampler model in
  let config = { Mrsl.Gibbs.burn_in; samples } in
  (* Masks and chains draw from separate streams, so the masked tuples do
     not depend on how many draws a chain consumes. *)
  let masks = Prob.Rng.split rng in
  let chains = Prob.Rng.split rng in
  let kl = ref 0. and top1 = ref 0 and count = ref 0 in
  for i = 0 to n - 1 do
    let tup = Relation.Tuple.of_point points.(i) in
    let blanks = Prob.Rng.sample_without_replacement masks missing arity in
    List.iter (fun a -> tup.(a) <- None) blanks;
    let _, truth = Bayesnet.Network.posterior_joint prepared.network tup in
    let est = Mrsl.Gibbs.run ~config chains sampler tup in
    kl := !kl +. Prob.Divergence.kl truth est.joint;
    if Prob.Dist.mode truth = Prob.Dist.mode est.joint then incr top1;
    incr count
  done;
  let c = float_of_int (max 1 !count) in
  { kl = !kl /. c; top1 = float_of_int !top1 /. c; count = !count }

let make_workload rng prepared ~size =
  let arity =
    Bayesnet.Topology.size (Bayesnet.Network.topology prepared.network)
  in
  let seen = Relation.Tuple.Table.create (size * 2) in
  let out = ref [] in
  let made = ref 0 in
  let next_point =
    let i = ref 0 in
    fun () ->
      if !i < Array.length prepared.test_points then begin
        let p = prepared.test_points.(!i) in
        incr i;
        p
      end
      else Bayesnet.Network.sample_point rng prepared.network
  in
  let attempts = ref 0 in
  let max_attempts = (size * 50) + 1000 in
  while !made < size && !attempts < max_attempts do
    incr attempts;
    let p = next_point () in
    let missing = 1 + Prob.Rng.int rng (arity - 1) in
    let tup = Relation.Tuple.of_point p in
    let blanks = Prob.Rng.sample_without_replacement rng missing arity in
    List.iter (fun a -> tup.(a) <- None) blanks;
    if not (Relation.Tuple.Table.mem seen tup) then begin
      Relation.Tuple.Table.replace seen tup ();
      out := tup :: !out;
      incr made
    end
  done;
  List.rev !out

let workload_stats ?(memoize = false) rng model ~strategy ~samples ~burn_in
    workload =
  let sampler = Mrsl.Gibbs.sampler ~memoize model in
  let config = { Mrsl.Gibbs.burn_in; samples } in
  let result = Mrsl.Workload.run ~config ~strategy rng sampler workload in
  result.stats

let parallel_workload_stats ?(memoize = true) ?telemetry ~domains ~seed model
    ~samples ~burn_in workload =
  let config = { Mrsl.Gibbs.burn_in; samples } in
  let contained =
    Mrsl.Workload.run_contained ~config ~strategy:Tuple_dag ~memoize
      ~domains ?telemetry ~seed model workload
  in
  contained.result.stats

let joint_agreement (a : Mrsl.Workload.result) (b : Mrsl.Workload.result) =
  let table = Relation.Tuple.Table.create 64 in
  List.iter
    (fun (tup, est) -> Relation.Tuple.Table.replace table tup est)
    a.estimates;
  let total = ref 0. and n = ref 0 in
  List.iter
    (fun (tup, (est_b : Mrsl.Gibbs.estimate)) ->
      match Relation.Tuple.Table.find_opt table tup with
      | None -> invalid_arg "Framework.joint_agreement: workloads differ"
      | Some (est_a : Mrsl.Gibbs.estimate) ->
          total := !total +. Prob.Divergence.total_variation est_a.joint est_b.joint;
          incr n)
    b.estimates;
  if !n = 0 then 0. else !total /. float_of_int !n
