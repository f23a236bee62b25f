(** Fig 11 — efficiency of multi-variable inference: total sampled points
    and wall-clock time as a function of workload size (distinct incomplete
    tuples), for the tuple-DAG strategy against the tuple-at-a-time
    baseline, at 500 points per tuple. Observations pool the
    multi-inference network set, as in the paper ("the choice of a network
    has no bearing on sampling cost").

    Definition: a workload holds tuples with 1 … arity−1 missing cells
    ({!Framework.make_workload}), and a single-missing tuple costs 0
    sampled points under both strategies — it takes Algorithm 2's vote,
    as in the paper, not a chain. Each row reports the workload's
    single-missing count beside its cost, counted from the workload
    itself. The data, each workload and each cell's chains draw from
    their own streams ({!Util.streams}), so the workloads do not depend on
    the samplers. *)

type point = {
  network : string;
  workload : int;  (** distinct incomplete tuples *)
  single_missing : int;  (** of [workload], tuples with one missing cell *)
  strategy : Mrsl.Workload.strategy;
  sampled_points : int;  (** Gibbs draws, burn-in included *)
  seconds : float;
}

val compute : Prob.Rng.t -> Scale.t -> point list
val render : Prob.Rng.t -> Scale.t -> string
