(** Itemsets of attribute–value pairs.

    In this paper's setting (footnote 1, Section II) an itemset is the
    complete portion of a tuple: a set of assignments [attr = value] with at
    most one assignment per attribute. Itemsets are kept as arrays sorted by
    attribute index, giving canonical keys for hashing and O(|s|) subset
    tests. *)

type t = private (int * int) array
(** Sorted by attribute index; attribute indices are unique. *)

val empty : t

val of_list : (int * int) list -> t
(** Raises [Invalid_argument] on duplicate attributes or negative
    components. *)

val of_tuple : Relation.Tuple.t -> t
(** The complete portion of an incomplete tuple, as an itemset. *)

val to_list : t -> (int * int) list
val size : t -> int
val is_empty : t -> bool

val attrs : t -> int list
(** Attribute indices, ascending. *)

val mem_attr : t -> int -> bool
val value_of : t -> int -> int option

val add : t -> int -> int -> t
(** [add s attr v] — raises [Invalid_argument] if [attr] is already
    assigned. *)

val remove_attr : t -> int -> t
(** Identity when the attribute is absent. *)

val union_disjoint : t -> t -> t option
(** Union of two itemsets; [None] when they assign different values to a
    common attribute, or assign the same attribute twice with equal values
    (a set union is still fine in that case — only *conflicts* yield
    [None]). *)

val subset : t -> t -> bool
(** [subset a b]: every assignment of [a] appears in [b]. *)

val proper_subset : t -> t -> bool

val matches_point : t -> int array -> bool
(** All assignments hold in the complete tuple. *)

val matches_tuple : t -> Relation.Tuple.t -> bool
(** All assignments appear among the tuple's *known* values — the
    meta-rule-applicability test of Section IV. *)

val to_tuple : arity:int -> t -> Relation.Tuple.t
(** Embed as an incomplete tuple of the given arity. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** [Stdlib.compare]'s order on the sorted [(attribute, value)] array,
    computed without the polymorphic walk: size first, then item by
    item, each by attribute then value. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
module Map : Map.S with type key = t
module Set : Set.S with type elt = t
