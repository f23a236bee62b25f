(** Ablation studies for the design choices DESIGN.md calls out:

    - the Apriori [maxItemsets] early-termination cap (Section III claims
      it "effectively controls model-building time, without a significant
      effect on accuracy");
    - the CPD smoothing floor (Section III fixes 0.00001);
    - the Gibbs sampling strategy (Section VI-D claims tuple-DAG matches
      tuple-at-a-time accuracy; we also measure all-at-a-time);
    - the conditional-CPD memoization this implementation adds on top of
      the paper's design. *)

type max_itemsets_row = {
  cap : int;
  build_time : float;
  model_size : float;
  kl : float;
  top1 : float;
}

val max_itemsets : Prob.Rng.t -> Scale.t -> max_itemsets_row list

type smoothing_row = { floor : float; kl : float; top1 : float }

val smoothing : Prob.Rng.t -> Scale.t -> smoothing_row list

type strategy_row = {
  strategy : Mrsl.Workload.strategy;
  kl : float;  (** joint KL against the exact posterior *)
  tv_vs_baseline : float;
      (** mean total variation against tuple-at-a-time's estimates *)
  sweeps : int;
}

val strategies : Prob.Rng.t -> Scale.t -> strategy_row list

type miner_row = {
  miner : string;
  build_time : float;
  model_size : float;
  identical : bool;  (** same meta-rule count as the Apriori model *)
}

val miners : Prob.Rng.t -> Scale.t -> miner_row list
(** Section III's miner-independence claim: Apriori vs FP-Growth build
    time at low support, and whether the resulting models coincide. *)

type memo_row = {
  memoize : bool;
  seconds : float;
  cache_hits : int;
  cache_misses : int;
}

val memoization : Prob.Rng.t -> Scale.t -> memo_row list
(** This repo's own addition on top of the paper: the per-epoch
    conditional tables Gibbs reads. Measures a fixed workload with
    memoization on and off. *)

type parallel_row = {
  domains : int;  (** 0 encodes the sequential tuple-DAG reference run *)
  seconds : float;
  sweeps : int;
}

val parallelism : Prob.Rng.t -> Scale.t -> parallel_row list
(** Multicore scaling of workload inference (this repo's [Mrsl.Parallel]):
    a sequential tuple-DAG run versus 2 and 4 domains, same workload, cache
    disabled so wall time tracks sampling work. *)

val render : Prob.Rng.t -> Scale.t -> string
