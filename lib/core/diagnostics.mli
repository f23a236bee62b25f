(** Convergence diagnostics for the Gibbs sampler.

    Section V-A: "The length of burn-in (B), and the subsequent number of
    iterations (N), may be estimated using standard techniques." This
    module implements those standard techniques for the MRSL sampler:

    - {e Gelman–Rubin} potential scale reduction (R̂) across several
      independent chains, computed on the indicator series of every
      (missing attribute, value) pair and reported as the maximum;
    - {e effective sample size} per chain from the autocorrelation of the
      same indicator series (initial-positive-sequence estimator),
      reported as the minimum over indicators.

    Every chain here records into a {!Sample_bag} through {!Gibbs.fill},
    and every statistic reads the bag's rows: the indicator series of
    column [k] and value [v] is [1.] where {!Sample_bag.value} is [v]. *)

type report = {
  psrf_max : float;  (** max Gelman–Rubin R̂ over all value indicators *)
  ess_min : float;  (** min effective sample size over all indicators *)
  chains : int;
  draws_per_chain : int;
}

val potential_scale_reduction : float array array -> float
(** [potential_scale_reduction series] — R̂ for one scalar statistic from
    [m] chains of equal length [n] ([series.(i)] is chain [i]). Returns 1.0
    when the statistic is constant. Raises [Invalid_argument] with fewer
    than 2 chains, chains shorter than 4, or ragged lengths. *)

val effective_sample_size : float array -> float
(** ESS of a single scalar series via the initial positive sequence of
    autocorrelations; at most the series length, at least 1. *)

val diagnose : ?chains:int -> ?draws:int -> ?burn_in:int -> Prob.Rng.t ->
  Gibbs.sampler -> Relation.Tuple.t -> report
(** Run several independent chains (default 4 × 500 draws after a burn-in
    of 100), each on its own {!Prob.Rng.split} of [rng] and into its own
    bag, for an incomplete tuple and summarize convergence. A
    well-mixed sampler has [psrf_max] close to 1 (≤ 1.1 is the customary
    threshold) and a healthy [ess_min]. *)

val converged : report -> bool
(** [psrf_max <= 1.1], the customary threshold. *)

(** {1 Convergence-driven retry}

    The fault-containment layer's answer to "the chain did not mix":
    {!Workload.run_contained}[ ~retry] measures {!split_rhat} on the bag
    each chain node filled, retries with doubled draws while R̂ > 1.1
    and the policy's budget lasts, and finally returns the estimate
    {e flagged} as non-converged. This module only holds the policy and
    the statistics; the executor runs the chains. *)

type retry_policy = {
  max_retries : int;  (** additional attempts after the first (2) *)
  max_total_sweeps : int;
      (** sweep budget across one node's attempts, burn-ins included
          (200 000) *)
}

val default_retry_policy : retry_policy

val split_rhat : Sample_bag.t -> float
(** Max split-halves R̂ over every (column, value) indicator series of a
    bag's rows (oldest first): the first [count / 2] rows against the
    last [count / 2]. Returns 1.0 for fewer than 8 rows. *)

val convergence_snapshot : Sample_bag.t -> float * float
(** [(split-R̂, min ESS)] over a bag's rows so far — the payload of the
    event-tracing layer's per-chain convergence timeline ({!Trace}
    counter events named [gibbs.convergence], emitted every few recorded
    sweeps and after each convergence check by {!Workload}'s executor
    when a trace sink is installed). ESS is the minimum over every (column,
    value) indicator series. *)
