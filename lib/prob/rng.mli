(** Deterministic pseudo-random number generator.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed. The generator is a
    hand-rolled splitmix64 (Steele, Lea & Flood 2014): a tiny, statistically
    solid, splittable PRNG. We do not use [Stdlib.Random] because its global
    state makes experiment pipelines order-dependent. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each experiment repetition its own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The splitmix64 output finalizer, [bits64]'s last step: a bijective
    64-bit mix. Every keyed deterministic hash in the repository (fault
    injection, quality masking, trace flow ids, histogram reservoirs)
    folds its key through it. *)

val int : t -> int -> int
(** [int t bound] is uniform on \[0, bound). Requires [bound > 0]. *)

val float : t -> float
(** Uniform on \[0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct indices from
    \[0, n), in increasing order. Requires [0 <= k <= n]. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate). Requires [rate > 0]. *)

val gamma : t -> float -> float
(** [gamma t shape] draws from Gamma(shape, 1) via Marsaglia–Tsang (with the
    standard boost for shape < 1). Requires [shape > 0]. *)
