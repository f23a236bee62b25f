type row = {
  network : string;
  method_name : string;
  learn_seconds : float;
  kl : float;
  top1 : float;
  tuples : int;
}

let networks = [ "BN8"; "BN17"; "BN2" ]

(* Joint-inference tasks: tuples with 2 missing attributes plus the exact
   posterior of the generating network. *)
let tasks rng (prepared : Framework.prepared) ~max_tuples =
  let arity =
    Bayesnet.Topology.size (Bayesnet.Network.topology prepared.network)
  in
  let n = min max_tuples (Array.length prepared.test_points) in
  List.init n (fun i ->
      let tup = Relation.Tuple.of_point prepared.test_points.(i) in
      let blanks = Prob.Rng.sample_without_replacement rng 2 arity in
      List.iter (fun a -> tup.(a) <- None) blanks;
      let _, truth = Bayesnet.Network.posterior_joint prepared.network tup in
      (tup, truth))

let score tasks infer =
  let kl = ref 0. and top1 = ref 0 in
  List.iter
    (fun (tup, truth) ->
      let est = infer tup in
      kl := !kl +. Prob.Divergence.kl truth est;
      if Prob.Dist.mode truth = Prob.Dist.mode est then incr top1)
    tasks;
  let n = float_of_int (max 1 (List.length tasks)) in
  (!kl /. n, float_of_int !top1 /. n)

let compute rng scale =
  let stream = Util.streams rng in
  List.concat_map
    (fun id ->
      let entry = Bayesnet.Catalog.find id in
      let prepared =
        match
          Framework.prepare (stream ("prepare/" ^ id) 0) scale entry
            ~train_size:scale.Scale.fixed_train
        with
        | p :: _ -> p
        | [] -> assert false
      in
      let points = Relation.Instance.complete_part prepared.train in
      let cards = Bayesnet.Topology.cardinalities entry.topology in
      let tasks =
        tasks (stream ("tasks/" ^ id) 0) prepared
          ~max_tuples:scale.Scale.joint_test_tuples
      in
      let n_tasks = List.length tasks in
      let gibbs_config =
        {
          Mrsl.Gibbs.burn_in = scale.Scale.burn_in;
          samples = scale.Scale.workload_samples;
        }
      in
      (* MRSL (shared by the first two methods). *)
      let model, mrsl_seconds =
        Framework.learn_timed prepared ~support:scale.Scale.fixed_support
      in
      let sampler = Mrsl.Gibbs.sampler model in
      let chains = stream ("gibbs/" ^ id) 0 in
      let mrsl_gibbs_kl, mrsl_gibbs_top1 =
        score tasks (fun tup ->
            (Mrsl.Gibbs.run ~config:gibbs_config chains sampler tup).joint)
      in
      let indep_kl, indep_top1 =
        score tasks (fun tup -> Baselines.Independent_product.infer_joint model tup)
      in
      (* Learned Bayesian network with exact inference. *)
      let (bn, _), bn_seconds =
        Framework.time (fun () -> Bayesnet.Structure_learn.fit ~cards points)
      in
      let bn_kl, bn_top1 =
        score tasks (fun tup -> snd (Bayesnet.Network.posterior_joint bn tup))
      in
      (* Plain dependency network with backoff. *)
      let dn, dn_seconds =
        Framework.time (fun () -> Baselines.Dn_backoff.fit ~cards points)
      in
      let dn_chains = stream ("dn/" ^ id) 0 in
      let dn_kl, dn_top1 =
        score tasks (fun tup ->
            Baselines.Dn_backoff.infer_joint ~burn_in:scale.Scale.burn_in
              ~samples:scale.Scale.workload_samples dn_chains dn tup)
      in
      [
        { network = id; method_name = "MRSL + Gibbs";
          learn_seconds = mrsl_seconds; kl = mrsl_gibbs_kl;
          top1 = mrsl_gibbs_top1; tuples = n_tasks };
        { network = id; method_name = "MRSL independent product";
          learn_seconds = mrsl_seconds; kl = indep_kl; top1 = indep_top1;
          tuples = n_tasks };
        { network = id; method_name = "learned BN (BIC) exact";
          learn_seconds = bn_seconds; kl = bn_kl; top1 = bn_top1;
          tuples = n_tasks };
        { network = id; method_name = "DN exact-match backoff";
          learn_seconds = dn_seconds; kl = dn_kl; top1 = dn_top1;
          tuples = n_tasks };
      ])
    networks

let render rng scale =
  Report.render
    ~title:
      (Printf.sprintf
         "Baselines: 2-missing joint inference (train=%d, support=%g)"
         scale.Scale.fixed_train scale.Scale.fixed_support)
    ~header:[ "network"; "method"; "learn (s)"; "KL"; "top-1"; "tuples" ]
    (List.map
       (fun r ->
         Report.
           [
             S r.network; S r.method_name; F r.learn_seconds; F r.kl;
             P r.top1; I r.tuples;
           ])
       (compute rng scale))
