(** Discrete probability distributions over [0 .. n-1].

    A distribution is represented as a plain [float array]; all constructors
    in this module guarantee the *positive CPD* invariant the paper's Gibbs
    sampler requires (Section III): every entry is at least the smoothing
    floor and the entries sum to 1 (within floating-point tolerance). *)

type t = private float array
(** A normalized distribution. The [private] view allows read access
    ([(d :> float array)] or {!prob}) while forcing construction through
    the smart constructors below. *)

val smoothing_floor : float
(** The paper's minimum probability per value, 0.00001 (Section III). *)

val of_weights : float array -> t
(** [of_weights w] normalizes non-negative weights to a distribution.
    Raises [Invalid_argument] if the array is empty, any weight is negative
    or non-finite, or all weights are zero. No smoothing is applied beyond
    normalization; use {!smooth} for the paper's flooring. *)

val of_probs : float array -> t
(** [of_probs p] adopts [p] unchanged (as a copy) when it already is a
    distribution: every entry finite and non-negative, entries summing to
    1 within 1e-9. Unlike {!of_weights} it never divides, so a
    distribution written out with full precision reads back bit for bit.
    Raises [Invalid_argument] otherwise. *)

val smooth : ?floor:float -> float array -> t
(** [smooth w] implements the paper's CPD repair: treat [w] as partial
    probability mass (entries in [0, 1], summing to at most ~1), distribute
    any missing mass equally among all values, raise every entry to at least
    [floor] (default {!smoothing_floor}), and re-normalize. *)

val uniform : int -> t
(** [uniform n] is the uniform distribution on [n] values. [n >= 1]. *)

val point : int -> int -> t
(** [point n i] puts (almost) all mass on value [i], smoothed to stay
    positive. *)

val size : t -> int
val prob : t -> int -> float

val to_array : t -> float array
(** A fresh copy of the underlying probabilities. *)

val sample : Rng.t -> t -> int
(** Draw a value by inverse-CDF walk. *)

val mode : t -> int
(** Index of the largest probability (ties broken toward the smaller
    index) — the "top-1" prediction of the paper's accuracy measure. *)

val average : t list -> t
(** Position-wise unweighted average of distributions of equal size — the
    paper's [averaged] voting scheme. Requires a non-empty list. *)

val weighted_average : (float * t) list -> t
(** Support-weighted average — the paper's [weighted] voting scheme. If all
    weights are zero, falls back to the unweighted average. *)

val entropy : t -> float
(** Shannon entropy in nats. *)

val pp : Format.formatter -> t -> unit
