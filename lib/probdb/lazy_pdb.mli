(** Lazy, query-targeted derivation of a probabilistic database.

    Section VIII of the paper names "partial materialization of probability
    values, as well as lazy, query-targeted learning and inference" as an
    opportunity opened by the MRSL approach. This module implements that
    idea for query answering: instead of running Gibbs inference for every
    incomplete tuple up front ({!Pdb.derive}), a lazy view holds the model
    and the relation, and materializes a tuple's block only when a query's
    outcome on that tuple actually depends on its missing values.

    Two savings compound:
    - tuples whose known values already decide the predicate (three-valued
      evaluation, {!Predicate.eval_partial}) are answered without any
      sampling;
    - blocks that are materialized are cached, so later queries reuse
      them.

    A block is inferred with {!Mrsl.Gibbs.run}, which answers a
    single-missing tuple by Algorithm 2's vote ({!Mrsl.Gibbs.vote}, the
    helper {!Mrsl.Workload}'s executor uses): its lazy block is
    bit-identical to the eager one of {!Pdb.derive}, and draws nothing
    from the view's RNG. *)

type t

val create : ?config:Mrsl.Gibbs.config -> ?method_:Mrsl.Voting.method_ ->
  ?min_prob:float -> Prob.Rng.t -> Mrsl.Model.t -> Relation.Instance.t -> t
(** A lazy view over the relation. No inference happens here. Raises
    [Invalid_argument] when the instance schema differs from the
    model's. *)

val tuple_count : t -> int

val materialized_count : t -> int
(** Number of incomplete tuples whose blocks have been inferred so far —
    the "partial materialization" measure. *)

val tuple_prob : t -> Predicate.t -> int -> float
(** Probability that the tuple at the given position satisfies the
    predicate; samples only if the known values leave it undecided. *)

val expected_count : t -> Predicate.t -> float
val prob_exists : t -> Predicate.t -> float

val force : t -> Pdb.t
(** Materialize every remaining block and return the full database. *)
