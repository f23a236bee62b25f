(** The MRSL model (paper Def 2.9) and its learning algorithm
    (Algorithm 1): one meta-rule semi-lattice per attribute, learned from
    the complete portion of a relation. *)

type miner = Apriori | Fp_growth
(** Section III: "the essence of our method is not dependent on which
    frequent itemset mining algorithm is used" — both are available and
    produce identical models. *)

type params = {
  support_threshold : float;  (** θ; the paper sweeps 0.001 … 0.1 *)
  max_itemsets : int;  (** Apriori per-round cap; the paper uses 1000 *)
  smoothing_floor : float;  (** per-value CPD floor; the paper uses 1e-5 *)
  miner : miner;  (** frequent-itemset algorithm; the paper uses Apriori *)
}

val default_params : params
(** θ = 0.02 (the paper's median), max_itemsets = 1000,
    smoothing_floor = 1e-5, miner = Apriori. *)

type t

val learn : ?params:params -> Relation.Instance.t -> t
(** Algorithm 1 over the complete part [Rc] of the relation: mine frequent
    itemsets (Apriori), derive association rules per head attribute, group
    them into meta-rules, and assemble per-attribute semi-lattices. The
    root meta-rule of every lattice is built from the attribute's exact
    marginal frequencies (weight 1), so inference always has a voter.
    Raises [Invalid_argument] on bad parameters. *)

val learn_points : ?params:params -> Relation.Schema.t -> int array array -> t
(** Learn directly from an array of points. *)

val of_parts : ?params:params -> ?frequent_itemsets:int -> ?truncated:bool ->
  Relation.Schema.t -> Lattice.t array -> t
(** Reassemble a model from its lattices — the deserialization constructor
    used by {!Model_io}. Validates that there is exactly one lattice per
    schema attribute, in order, with matching head attributes and
    cardinalities. *)

val schema : t -> Relation.Schema.t
val params : t -> params
val lattice : t -> int -> Lattice.t
(** The MRSL of the attribute at the given position. *)

val lattices : t -> Lattice.t array

val size : t -> int
(** Total number of meta-rules across all lattices — the "model size" of
    Fig 4(c) and Fig 9. *)

val frequent_itemsets : t -> int
(** Number of frequent itemsets retained by the mining pass. *)

val truncated : t -> bool
(** Whether Apriori's per-round cap fired during learning. *)

val epoch : t -> int
(** Process-unique model generation, assigned at construction. Every call
    to {!learn}, {!learn_points} or {!of_parts} (and therefore every
    {!Model_io.load}) yields a fresh epoch, so state keyed by it — the
    compiled {!Kernel} and its conditional tables, the posterior store —
    can never serve entries computed against a different model,
    including a retrained one over the same schema. *)

val pp : Format.formatter -> t -> unit
