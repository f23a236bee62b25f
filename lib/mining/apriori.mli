(** Apriori frequent-itemset mining (Agrawal & Srikant 1994), as used by the
    MRSL learning algorithm (Section III).

    Bottom-up, level-wise: frequent 1-itemsets first, then candidate
    k-itemsets joined from frequent (k−1)-itemsets and pruned by downward
    closure, then counted against the data. Two termination conditions, per
    the paper: a round finds no frequent itemsets, or a round finds more
    than [max_itemsets] (the paper sets 1000), which bounds the quadratic
    candidate join.

    Counting is vertical and exact. One pass over the points gives every
    frequent 1-item a tid-bitset over the rows (62 rows to a word); a
    candidate's count is the popcount of the AND of its items' bitsets,
    and the AND of a joined itemset's own items is taken once for all the
    candidates it forms. Levels are kept as sorted item-id rows in
    lexicographic order, so candidates are joined only within a prefix
    group, and [Itemset.t] values are built only for the itemsets that
    are kept.

    Memory: bitsets exist only for frequent 1-items. Beyond the result and
    the current and next levels, mining holds
    (#frequent 1-items + 1) × 8⌈n/62⌉ bytes for [n] points, about n/8
    bytes per frequent item. *)

type config = { threshold : float; max_itemsets : int }
(** [threshold] — minimum support (fraction of points), in [0, 1].
    [max_itemsets] — the early-termination cap on per-round results. *)

val default_config : config
(** θ = 0.02 (the paper's median), max_itemsets = 1000. *)

type t
(** Mining result: the frequent itemsets with their supports. The empty
    itemset is always present with support 1. *)

val mine : ?config:config -> cards:int array -> int array array -> t
(** [mine ~cards points] over complete tuples whose attribute [i] ranges in
    [0 .. cards.(i) - 1]. Raises [Invalid_argument] on a bad configuration
    or on tuples inconsistent with [cards]. An empty [points] array yields
    just the empty itemset. *)

val support : t -> Itemset.t -> float option
(** Support of a *frequent* itemset; [None] if it was not retained. *)

val frequent : t -> (Itemset.t * float) list
(** All frequent itemsets with supports, smallest first; includes the empty
    itemset. *)

val frequent_of_size : t -> int -> (Itemset.t * float) list

val count : t -> int
(** Number of frequent itemsets (excluding the empty itemset). *)

val rounds : t -> int
(** Number of completed Apriori rounds (largest itemset size found). *)

val truncated : t -> bool
(** Whether the [max_itemsets] cap fired. *)

val of_supports : rounds:int -> truncated:bool -> (Itemset.t * float) list ->
  t
(** Assemble a result from explicit (itemset, support) pairs — the
    constructor used by alternative miners ({!Fp_growth}) so they share
    this result type. The empty itemset is added automatically. *)
