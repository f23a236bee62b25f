(** Disjoint-independent probabilistic databases — the output of the
    paper's pipeline (Section I-A).

    A database is a schema plus one block per source tuple: certain blocks
    for the complete tuples, derived blocks for the incomplete ones. A
    possible world chooses one alternative per block, all choices
    independent, which makes the query-level probabilities below closed
    form. *)

type t

val make : Relation.Schema.t -> Block.t list -> t
(** Raises [Invalid_argument] on arity mismatches. *)

val derive : ?config:Mrsl.Gibbs.config -> ?method_:Mrsl.Voting.method_ ->
  ?strategy:Mrsl.Workload.strategy -> ?min_prob:float -> Prob.Rng.t ->
  Mrsl.Model.t -> Relation.Instance.t -> t
(** The paper's end-to-end derivation: keep complete tuples as certain
    blocks, run (tuple-DAG, by default) multi-attribute inference over the
    incomplete tuples ({!Mrsl.Workload.run}), and materialize one block
    per tuple. A single-missing tuple takes Algorithm 2's vote there, not
    a Gibbs chain: its block carries exactly the floats of
    [Infer_single.infer ~method_], the answer [mrsl serve] gives for it.
    Identical incomplete tuples share one inference run but still yield
    one block each. *)

val schema : t -> Relation.Schema.t
val blocks : t -> Block.t array
val block_count : t -> int

val possible_worlds : t -> float
(** Number of possible worlds: Π (alternatives per block). A float — this
    overflows integers immediately. *)

val world_log_prob : t -> int array array -> float
(** Log-probability of a specific world given as one chosen point per
    block, in block order. Raises [Invalid_argument] on shape mismatch;
    [neg_infinity] when some choice is not among a block's
    alternatives. *)

val most_probable_world : t -> int array array * float
(** The modal world (independent blocks ⇒ per-block argmax) and its
    log-probability. *)

val top_k_worlds : t -> int -> (int array array * float) list
(** The [k] most probable worlds with log-probabilities, best first —
    lazy best-first enumeration over per-block alternative ranks, so cost
    is O(k · blocks · log) rather than the full world count. Fewer than
    [k] results when the database has fewer worlds. Requires [k >= 1]. *)

val sample_world : Prob.Rng.t -> t -> int array array
(** Draw a world from the distribution (truncated mass, if any, is
    re-normalized away within each block). *)

val tuple_prob : t -> Predicate.t -> int -> float
(** [tuple_prob db p i] — probability that block [i]'s chosen tuple
    satisfies [p]. *)

val expected_count : t -> Predicate.t -> float
(** Expected number of tuples satisfying the predicate (linearity of
    expectation across blocks). *)

val prob_exists : t -> Predicate.t -> float
(** Probability that at least one tuple satisfies the predicate:
    1 − Π (1 − pᵢ), by block independence. *)

val pp : Format.formatter -> t -> unit
