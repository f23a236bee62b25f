type max_itemsets_row = {
  cap : int;
  build_time : float;
  model_size : float;
  kl : float;
  top1 : float;
}

let ablation_networks scale =
  Util.take
    (max 1 (scale.Scale.networks_cap / 2))
    (List.map Bayesnet.Catalog.find [ "BN10"; "BN14"; "BN3" ])

let caps = [ 50; 200; 1000; 5000 ]

let max_itemsets rng scale =
  let cells =
    List.concat_map
      (fun entry ->
        List.map
          (fun prepared -> prepared)
          (Framework.prepare rng scale entry
             ~train_size:scale.Scale.median_train))
      (ablation_networks scale)
  in
  List.map
    (fun cap ->
      let params =
        {
          Mrsl.Model.default_params with
          support_threshold = scale.Scale.fixed_support;
          max_itemsets = cap;
        }
      in
      let measures =
        List.map
          (fun (prepared : Framework.prepared) ->
            let model, seconds =
              Framework.time (fun () ->
                  Mrsl.Model.learn ~params prepared.train)
            in
            let acc =
              match
                Framework.eval_single rng prepared model
                  ~methods:[ Mrsl.Voting.best_averaged ]
                  ~max_tuples:scale.Scale.test_tuples
              with
              | [ (_, acc) ] -> acc
              | _ -> assert false
            in
            (seconds, float_of_int (Mrsl.Model.size model), acc))
          cells
      in
      {
        cap;
        build_time = Util.avg_by (fun (s, _, _) -> s) measures;
        model_size = Util.avg_by (fun (_, m, _) -> m) measures;
        kl =
          (Framework.merge (List.map (fun (_, _, a) -> a) measures)).Framework.kl;
        top1 =
          (Framework.merge (List.map (fun (_, _, a) -> a) measures))
            .Framework.top1;
      })
    caps

type smoothing_row = { floor : float; kl : float; top1 : float }

let floors = [ 1e-7; 1e-5; 1e-3; 0.05 ]

let smoothing rng scale =
  let cells =
    List.concat_map
      (fun entry ->
        Framework.prepare rng scale entry ~train_size:scale.Scale.median_train)
      (ablation_networks scale)
  in
  List.map
    (fun floor ->
      let params =
        {
          Mrsl.Model.default_params with
          support_threshold = scale.Scale.fixed_support;
          smoothing_floor = floor;
        }
      in
      let accs =
        List.map
          (fun (prepared : Framework.prepared) ->
            let model = Mrsl.Model.learn ~params prepared.train in
            match
              Framework.eval_single rng prepared model
                ~methods:[ Mrsl.Voting.best_averaged ]
                ~max_tuples:scale.Scale.test_tuples
            with
            | [ (_, acc) ] -> acc
            | _ -> assert false)
          cells
      in
      let acc = Framework.merge accs in
      { floor; kl = acc.Framework.kl; top1 = acc.Framework.top1 })
    floors

type strategy_row = {
  strategy : Mrsl.Workload.strategy;
  kl : float;
  tv_vs_baseline : float;
  sweeps : int;
}

let strategies rng scale =
  let entry = Bayesnet.Catalog.find "BN8" in
  let prepared =
    match
      Framework.prepare rng scale entry ~train_size:scale.Scale.median_train
    with
    | p :: _ -> p
    | [] -> assert false
  in
  let model, _ =
    Framework.learn_timed prepared ~support:scale.Scale.fixed_support
  in
  let workload =
    Framework.make_workload rng prepared
      ~size:(List.fold_left min max_int scale.Scale.workload_sizes)
  in
  let sampler = Mrsl.Gibbs.sampler model in
  let config =
    {
      Mrsl.Gibbs.burn_in = scale.Scale.burn_in;
      samples = scale.Scale.workload_samples;
    }
  in
  let run strategy =
    Mrsl.Workload.run ~config ~strategy (Prob.Rng.split rng) sampler workload
  in
  let baseline = run Mrsl.Workload.Tuple_at_a_time in
  let mean_kl (result : Mrsl.Workload.result) =
    Util.avg_by
      (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
        let _, truth = Bayesnet.Network.posterior_joint prepared.network tup in
        Prob.Divergence.kl truth est.joint)
      result.estimates
  in
  List.map
    (fun strategy ->
      let result =
        if strategy = Mrsl.Workload.Tuple_at_a_time then baseline
        else run strategy
      in
      {
        strategy;
        kl = mean_kl result;
        tv_vs_baseline = Framework.joint_agreement baseline result;
        sweeps = result.stats.sweeps;
      })
    Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag; All_at_a_time ]

type miner_row = {
  miner : string;
  build_time : float;
  model_size : float;
  identical : bool;
}

let miners rng scale =
  let cells =
    List.concat_map
      (fun entry ->
        Framework.prepare rng scale entry ~train_size:scale.Scale.median_train)
      (ablation_networks scale)
  in
  let learn_with miner (prepared : Framework.prepared) =
    let params =
      {
        Mrsl.Model.default_params with
        support_threshold = scale.Scale.fixed_support;
        miner;
      }
    in
    Framework.time (fun () -> Mrsl.Model.learn ~params prepared.train)
  in
  let apriori = List.map (learn_with Mrsl.Model.Apriori) cells in
  let fp = List.map (learn_with Mrsl.Model.Fp_growth) cells in
  let row name results =
    {
      miner = name;
      build_time = Util.avg_by snd results;
      model_size =
        Util.avg_by (fun (m, _) -> float_of_int (Mrsl.Model.size m)) results;
      identical =
        List.for_all2
          (fun (a, _) (b, _) -> Mrsl.Model.size a = Mrsl.Model.size b)
          apriori results;
    }
  in
  [ row "Apriori" apriori; row "FP-Growth" fp ]

type memo_row = {
  memoize : bool;
  seconds : float;
  cache_hits : int;
  cache_misses : int;
}

let memoization rng scale =
  let entry = Bayesnet.Catalog.find "BN17" in
  let prepared =
    match
      Framework.prepare rng scale entry ~train_size:scale.Scale.median_train
    with
    | p :: _ -> p
    | [] -> assert false
  in
  let model, _ =
    Framework.learn_timed prepared ~support:scale.Scale.fixed_support
  in
  let workload =
    Framework.make_workload rng prepared
      ~size:(List.fold_left min max_int scale.Scale.workload_sizes)
  in
  let config =
    {
      Mrsl.Gibbs.burn_in = scale.Scale.burn_in;
      samples = scale.Scale.workload_samples;
    }
  in
  List.map
    (fun memoize ->
      let sampler = Mrsl.Gibbs.sampler ~memoize model in
      let result =
        Mrsl.Workload.run ~config ~strategy:Mrsl.Workload.Tuple_at_a_time
          (Prob.Rng.split rng) sampler workload
      in
      let cache_hits, cache_misses = Mrsl.Gibbs.cache_stats sampler in
      { memoize; seconds = result.stats.wall_seconds; cache_hits;
        cache_misses })
    [ false; true ]

type parallel_row = { domains : int; seconds : float; sweeps : int }

let parallelism rng scale =
  let entry = Bayesnet.Catalog.find "BN17" in
  let prepared =
    match
      Framework.prepare rng scale entry ~train_size:scale.Scale.median_train
    with
    | p :: _ -> p
    | [] -> assert false
  in
  let model, _ =
    Framework.learn_timed prepared ~support:scale.Scale.median_support
  in
  let workload =
    Framework.make_workload rng prepared
      ~size:(List.fold_left min max_int scale.Scale.workload_sizes)
  in
  let config =
    {
      Mrsl.Gibbs.burn_in = scale.Scale.burn_in;
      samples = scale.Scale.workload_samples;
    }
  in
  List.map
    (fun domains ->
      let { Mrsl.Workload.result; _ } =
        Mrsl.Workload.run_contained ~config ~strategy:Tuple_dag
          ~memoize:false ~domains ~seed:71 model workload
      in
      { domains; seconds = result.stats.wall_seconds;
        sweeps = result.stats.sweeps })
    [ 1; 2; 4 ]

let render rng scale =
  let cap_table =
    Report.render
      ~title:"Ablation: Apriori maxItemsets cap (build time / size / accuracy)"
      ~header:[ "cap"; "build time (s)"; "model size"; "KL"; "top-1" ]
      (List.map
         (fun r ->
           Report.[ I r.cap; F r.build_time; F r.model_size; F r.kl; P r.top1 ])
         (max_itemsets rng scale))
  in
  let floor_table =
    Report.render ~title:"Ablation: CPD smoothing floor"
      ~header:[ "floor"; "KL"; "top-1" ]
      (List.map
         (fun (r : smoothing_row) -> Report.[ F r.floor; F r.kl; P r.top1 ])
         (smoothing rng scale))
  in
  let strat_table =
    Report.render
      ~title:"Ablation: Gibbs strategy accuracy parity (BN8 workload)"
      ~header:[ "strategy"; "joint KL"; "TV vs tuple-at-a-time"; "sweeps" ]
      (List.map
         (fun (r : strategy_row) ->
           Report.
             [
               S (Mrsl.Workload.strategy_name r.strategy); F r.kl;
               F r.tv_vs_baseline; I r.sweeps;
             ])
         (strategies rng scale))
  in
  let miner_table =
    Report.render ~title:"Ablation: frequent-itemset miner (Section III claim)"
      ~header:[ "miner"; "build time (s)"; "model size"; "same model?" ]
      (List.map
         (fun (r : miner_row) ->
           Report.
             [
               S r.miner; F r.build_time; F r.model_size;
               S (if r.identical then "yes" else "NO");
             ])
         (miners rng scale))
  in
  let memo_table =
    Report.render
      ~title:"Ablation: conditional-CPD memoization (ours, BN17 workload)"
      ~header:[ "memoize"; "time (s)"; "cache hits"; "cache misses" ]
      (List.map
         (fun (r : memo_row) ->
           Report.
             [
               S (if r.memoize then "on" else "off"); F r.seconds;
               I r.cache_hits; I r.cache_misses;
             ])
         (memoization rng scale))
  in
  let parallel_table =
    Report.render
      ~title:
        (Printf.sprintf
           "Ablation: multicore workload inference (ours, BN17 workload; \
            host reports %d core%s — expect speedups only above 1)"
           (Domain.recommended_domain_count ())
           (if Domain.recommended_domain_count () = 1 then "" else "s"))
      ~header:[ "domains"; "time (s)"; "sweeps" ]
      (List.map
         (fun (r : parallel_row) ->
           Report.
             [
               I r.domains; F r.seconds; I r.sweeps;
             ])
         (parallelism rng scale))
  in
  String.concat "\n"
    [ cap_table; floor_table; strat_table; miner_table; memo_table;
      parallel_table ]
