(** Score-based Bayesian-network structure learning — the "computationally
    very expensive" exact-model alternative the paper positions MRSL
    against (Section I-A).

    Greedy hill climbing over DAGs with the BIC score: at each step the
    best single-edge addition, deletion, or reversal is applied until no
    operation improves the score. BIC decomposes per family, so only the
    touched families are re-scored; family scores are cached. Parameters
    (CPT rows) are then estimated with Laplace smoothing.

    Used by the [baselines] benchmark to reproduce the paper's motivating
    trade-off: an explicit joint model buys exact inference at a learning
    cost that grows much faster than MRSL's. *)

type stats = {
  score : float;  (** BIC of the final structure *)
  iterations : int;  (** hill-climbing steps taken *)
  families_scored : int;  (** family-score evaluations (cache misses) *)
}

val bic_family_score : cards:int array -> int array array -> int ->
  int list -> float
(** [bic_family_score ~cards points var parents] — log-likelihood of
    [var]'s CPT given [parents], minus the BIC penalty
    (½·log N · #free parameters). Exposed for tests. *)

val fit : ?max_parents:int -> ?max_iterations:int -> ?alpha:float ->
  cards:int array -> int array array -> Network.t * stats
(** Learn structure and parameters from complete data. [max_parents]
    bounds in-degree (default 3), [max_iterations] bounds hill-climbing
    steps (default 200), [alpha] is the Laplace pseudo-count for parameter
    estimation (default 1). Raises [Invalid_argument] on empty data or
    inconsistent cardinalities. *)
