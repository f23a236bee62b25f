(** FP-Growth frequent-itemset mining (Han, Pei & Yin 2000).

    Section III: "the essence of our method is not dependent on which
    frequent itemset mining algorithm is used." This second miner makes
    that claim executable: it produces exactly the same frequent itemsets
    and supports as {!Apriori}, via a compressed FP-tree and recursive
    conditional-tree projection instead of level-wise candidate
    generation, and the test suite uses it as Apriori's oracle.

    The [max_itemsets] cap gives Apriori's result exactly: mining keeps
    every size class up to and including the first one larger than the
    cap, drops longer patterns, and reports the same [rounds] and
    [truncated]. The tests check this equality, bit-equal supports
    included, on BN7 and BN10 at 5000 rows for θ ∈ {0.005, 0.01, 0.05}
    and caps 100 and 1000, and on random data with caps that fire
    mid-level. *)

val mine : ?config:Apriori.config -> cards:int array -> int array array ->
  Apriori.t
(** Same contract as {!Apriori.mine} — including the result type, so the
    two miners are interchangeable downstream. *)
