(** Meta-rule semi-lattices (paper Def 2.8): all meta-rules with a common
    head attribute, ordered by subsumption.

    The lattice always contains a *root* meta-rule with an empty body — the
    marginal P(a) — so every inference task has at least one voter (the
    top-level rule of Fig 2, weight 1). Matching is by subset enumeration
    over the queried tuple's known attributes, probing a body-keyed hash
    table, so a lookup costs Σ_s C(#known, s) probes for body sizes [s]
    actually present rather than a scan of the whole lattice. *)

type t

val create : head_attr:int -> head_card:int -> root:Meta_rule.t ->
  Meta_rule.t list -> t
(** [create ~head_attr ~head_card ~root rules]. The root must have an empty
    body; all meta-rules must have the given head attribute, CPDs of size
    [head_card], and pairwise distinct bodies. A non-root rule with an
    empty body is rejected (the root already covers it). *)

val head_attr : t -> int
val head_card : t -> int

val size : t -> int
(** Number of meta-rules, root included — the "model size" unit of
    Fig 4(c). *)

val root : t -> Meta_rule.t
val meta_rules : t -> Meta_rule.t list
val find : t -> Mining.Itemset.t -> Meta_rule.t option
val max_body_size : t -> int

val body_attrs : t -> int array
(** Sorted, duplicate-free attribute indices mentioned by at least one rule
    body in the lattice (never includes the head attribute). Only these
    attributes' observed values can change the outcome of {!matching} — the
    lattice-relevant evidence context that keys the conditional tables of
    {!Kernel}, the one posterior store. The returned array is owned by the
    lattice; do not mutate. *)

val matching : t -> Relation.Tuple.t -> Meta_rule.t list
(** All meta-rules whose body holds in the tuple's known values — the
    [vChoice = all] voter set. Never empty (contains the root). The head
    attribute's own value in the tuple, if any, is ignored. *)

val most_specific : Meta_rule.t list -> Meta_rule.t list
(** Filter to meta-rules that do not subsume any other in the list — the
    [vChoice = best] voter set (Section IV). *)

val cover_edges : t -> (Meta_rule.t * Meta_rule.t) list
(** Hasse-diagram edges (parent, child): parent subsumes child with no
    meta-rule strictly between. For inspection, rendering, and tests. *)

val pp : Format.formatter -> t -> unit

val pp_named : Relation.Schema.t -> Format.formatter -> t -> unit
(** Like {!pp}, with the schema's attribute and value labels. *)
