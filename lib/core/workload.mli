(** Multi-attribute inference over workloads of incomplete tuples
    (Section V): the three sampling strategies the paper compares.

    - {e tuple-at-a-time}: an independent Gibbs chain per distinct tuple —
      the baseline of Fig 11.
    - {e tuple-DAG} (Algorithm 3): chains run only for the subsumption
      roots; completed nodes donate matching samples to their subsumees,
      which are promoted to the sampling frontier only if still short of N
      once every parent has finished.
    - {e all-at-a-time}: one chain over the fully unknown tuple t*; every
      draw is offered to every workload tuple it matches. Kept for
      completeness (Section V-A shows why it wastes samples on selective
      evidence).

    Cost is reported as the number of Gibbs sweeps (sampled points,
    burn-in included) and wall-clock seconds — the two y-axes of
    Fig 11. *)

type strategy = Tuple_at_a_time | Tuple_dag | All_at_a_time

val strategy_name : strategy -> string

type stats = {
  sweeps : int;  (** Gibbs draws performed, burn-in included *)
  recorded : int;  (** sample points recorded into per-tuple buffers *)
  shared : int;  (** of [recorded], how many arrived by DAG sharing *)
  wall_seconds : float;
}

type result = {
  estimates : (Relation.Tuple.t * Gibbs.estimate) list;
      (** one estimate per distinct incomplete tuple, in first-seen order *)
  stats : stats;
}

val run : ?config:Gibbs.config -> ?strategy:strategy -> ?max_draws:int ->
  ?telemetry:Telemetry.t -> ?quality:Quality.t -> Prob.Rng.t ->
  Gibbs.sampler -> Relation.Tuple.t list -> result
(** Infer the joint distribution of the missing values of every distinct
    incomplete tuple in the workload. Complete tuples are rejected with
    [Invalid_argument]. [strategy] defaults to [Tuple_dag]. [max_draws]
    (default [10_000_000]) bounds the all-at-a-time chain, which otherwise
    need not terminate when some tuple's evidence is never hit; tuples
    still short of samples when the cap fires are estimated from what was
    collected (or from one forced direct chain if they matched nothing).
    [telemetry] (default {!Telemetry.global}) receives the
    [workload.run] span, [workload.sweeps] / [workload.recorded] /
    [workload.shared] counters, the [workload.tuples] histogram, and a
    [gibbs.memo_hit_rate] observation covering this run's memo probes.

    [quality], when given, receives the run's estimates {e after} every
    sample has been drawn ({!Quality.attach_model} on the sampler's
    model, then {!Quality.observe_estimates}): pure observation feeding
    the drift monitor. The hook consumes no inference RNG and runs
    outside the sampling loops, so a monitored run is bit-identical to
    an unmonitored one.

    The sampler's conditionals and chain initialisations read and fill
    the model epoch's conditional tables (see {!Gibbs.sampler}), so a
    run starts warm from every earlier run on the same model, sequential
    or {!Parallel}. Stored posteriors are bit-identical to recomputed
    ones: warm and cold runs produce identical estimates. *)
