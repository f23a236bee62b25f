(** Association rules over frequent itemsets (paper Def 2.5).

    A rule pairs a body itemset with a single attribute–value assignment in
    the head; its confidence supp(body ∪ head)/supp(body) estimates the
    conditional probability of the head given the body. Per Section III, no
    confidence threshold is applied — every frequent itemset containing the
    head attribute yields a rule. *)

type t = {
  body : Itemset.t;
  head_attr : int;
  head_value : int;
  confidence : float;  (** supp(body ∪ head) / supp(body) *)
  body_support : float;  (** supp(body) — the meta-rule weight source *)
  rule_support : float;  (** supp(body ∪ head) *)
}

val mine_for_attr :
  ?frequent:(Itemset.t * float) list -> Apriori.t -> int -> t list
(** All rules with the given head attribute, derived from every frequent
    itemset that assigns it. Bodies may be empty (rules feeding the
    top-level meta-rule P(a)). Rules come in the order of [frequent],
    which defaults to [Apriori.frequent apriori]; a caller deriving rules
    for several heads passes that list once instead of re-sorting it per
    head. *)

val mine : Apriori.t -> arity:int -> t list
(** Rules for every head attribute [0 .. arity-1]. *)

val pp : Format.formatter -> t -> unit
