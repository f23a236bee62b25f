(** The experimental framework of Section VI-A.

    For a catalog topology: generate random network instances, forward-
    sample a dataset, split 90/10 into train/test, mask test values, learn
    the MRSL model on the training set, and score inferred distributions
    against the *exact* posterior of the generating network (KL divergence
    and top-1 agreement). Results are averaged over instances × splits per
    the scale preset. *)

val time : (unit -> 'a) -> 'a * float
(** Result and wall-clock seconds; also recorded into the
    [experiments.timed_seconds] histogram of {!Mrsl.Telemetry.global}. *)

type prepared = {
  entry : Bayesnet.Catalog.entry;
  network : Bayesnet.Network.t;
  train : Relation.Instance.t;
  test_points : int array array;
}
(** One (instance, split) repetition: the generating network, the training
    relation (complete), and the held-out complete test points (masked on
    demand by the evaluation functions). *)

val prepare : Prob.Rng.t -> Scale.t -> Bayesnet.Catalog.entry ->
  train_size:int -> prepared list
(** All instance × split repetitions for one topology, with ~[train_size]
    training points each (the 90% share of the generated dataset). *)

val learn_timed : prepared -> support:float -> Mrsl.Model.t * float
(** Learn with the given support threshold; seconds of wall time —
    Fig 4's y-axis. *)

type accuracy = { kl : float; top1 : float; count : int }
(** Mean KL divergence (truth ‖ estimate), fraction of correct top-1
    guesses, number of test tuples scored. *)

val merge : accuracy list -> accuracy
(** Pool accuracies weighted by their tuple counts. *)

val eval_single : Prob.Rng.t -> prepared -> Mrsl.Model.t ->
  methods:Mrsl.Voting.method_ list -> max_tuples:int ->
  (Mrsl.Voting.method_ * accuracy) list
(** Single-attribute inference accuracy: each test point has one uniformly
    chosen attribute masked; every voting method scores the same masked
    tuples against the exact BN posterior. *)

val single_inference_time : Prob.Rng.t -> prepared -> Mrsl.Model.t ->
  batch:int -> float
(** Wall seconds to infer one masked attribute for a batch of [batch] test
    tuples (test points recycled if fewer) — Fig 9's y-axis. *)

val eval_joint : Prob.Rng.t -> prepared -> Mrsl.Model.t -> missing:int ->
  samples:int -> burn_in:int -> max_tuples:int -> accuracy
(** Multi-attribute (Gibbs) inference accuracy: mask [missing] attributes
    per test tuple, estimate the joint by tuple-at-a-time sampling, and
    compare to the exact joint posterior. Top-1 is agreement on the modal
    joint completion. The masks and the chains draw from two streams split
    off [rng], so the masked tuples do not depend on the sampler. *)

val make_workload : Prob.Rng.t -> prepared -> size:int ->
  Relation.Tuple.t list
(** [size] *distinct* incomplete tuples with 1 … arity−1 missing values,
    built from test points (drawing fresh network samples if the test set
    is too small). *)

val workload_stats : ?memoize:bool -> Prob.Rng.t -> Mrsl.Model.t ->
  strategy:Mrsl.Workload.strategy -> samples:int -> burn_in:int ->
  Relation.Tuple.t list -> Mrsl.Workload.stats
(** Run a workload under a strategy and report its cost counters (Fig 11;
    single-missing tuples take the vote and cost 0 sweeps).
    [memoize] defaults to [false] here: Fig 11 measures the paper's cost
    model, where wall time is proportional to sampled points. *)

val parallel_workload_stats : ?memoize:bool -> ?telemetry:Mrsl.Telemetry.t ->
  domains:int -> seed:int -> Mrsl.Model.t -> samples:int -> burn_in:int ->
  Relation.Tuple.t list -> Mrsl.Workload.stats
(** Tuple-DAG workload cost under the workload scheduler at a given
    domain count ({!Mrsl.Workload.run_contained}); [memoize] defaults to
    [true] — this measures the system as deployed, not the paper's cost
    model. *)

val joint_agreement : Mrsl.Workload.result -> Mrsl.Workload.result -> float
(** Mean total-variation distance between two strategies' estimates of the
    same workload (the paper's tuple-DAG vs tuple-at-a-time accuracy-parity
    check). Requires equal workloads. *)
