(** Ordered Gibbs sampling over MRSL models (Section V-A).

    For a tuple with several missing values, the sampler fixes the known
    attributes as evidence, initializes the missing ones, and repeatedly
    cycles through them in attribute order, resampling each from its
    single-attribute MRSL estimate with all other attributes as evidence
    (Heckerman et al.'s ordered Gibbs sampler over a dependency network).
    Smoothed meta-rule CPDs are strictly positive, so the chain is ergodic
    on the evidence-consistent slice of the space.

    Conditional CPDs are memoized across sweeps, tuples, samplers, runs
    and domains in the model epoch's conditional tables ({!Kernel}'s
    "Conditional tables"), keyed by (voting method, attribute, evidence
    context over the attribute's [body_attrs]): a revisited context costs
    an array read instead of a lattice match — the "caching the results
    of partial computations" of Section I-B. Chain initialisation reads
    the same tables. *)

type config = {
  burn_in : int;  (** B — discarded leading sweeps per chain *)
  samples : int;  (** N — recorded sweeps per tuple *)
}

val default_config : config
(** B = 100, N = 1000. The voting method for the local CPDs is a property
    of the {!sampler}. *)

type sampler
(** A model, a voting method, and this sampler's table probe counts. *)

val sampler : ?method_:Voting.method_ -> ?memoize:bool -> Model.t -> sampler
(** [memoize] (default [true]) makes the sampler read and fill the
    epoch's conditional tables. Turning it off reproduces the cost model
    of the paper's prototype, where every Gibbs sweep pays the full
    ensemble-voting cost — used by the Fig 11 harness so sampling counts
    and wall time stay proportional, and ablated in the benchmarks. The
    tables are also bypassed, and every conditional recomputed, while the
    kernel is disabled, while voter-drop injection is active, and for an
    attribute the kernel could not compile. Stored posteriors are
    bit-identical to recomputed ones, so [memoize] never changes sampling
    output — only wall time. Raises [Invalid_argument] when a schema
    cardinality is [< 1]. *)

val model : sampler -> Model.t

val conditional : sampler -> int array -> int -> Prob.Dist.t
(** [conditional s point a] — the MRSL estimate of attribute [a]
    given the values of all other attributes in [point]. Raises
    [Invalid_argument] when [point] does not have the schema's arity, [a]
    is not an attribute, or a value other than [point.(a)] is out of
    range. (Chains skip these checks on their hot path: their evidence is
    checked once by {!chain}.) *)

val cache_stats : sampler -> int * int
(** (hits, misses) of this sampler's conditional-table probes: its
    conditionals and chain initialisations. A bypassed probe counts as
    neither. *)

val hit_rate : sampler -> float
(** hits / (hits + misses), or [0.] before any probe (or when the tables
    are bypassed). *)

val publish_cache_stats : ?telemetry:Telemetry.t -> sampler -> unit
(** Record the probe counters into [telemetry] (default
    {!Telemetry.global}): counters [gibbs.memo_hits] /
    [gibbs.memo_misses] and one [gibbs.memo_hit_rate] histogram
    observation (skipped when the sampler was never probed). *)

type chain
(** One Gibbs chain: a tuple's evidence plus the current assignment of its
    missing attributes. *)

val chain : ?telemetry:Telemetry.t -> Prob.Rng.t -> sampler ->
  Relation.Tuple.t -> chain
(** Start a chain for an incomplete tuple: missing attributes are
    initialized by sampling their single-attribute MRSL estimates given
    the evidence. Raises [Invalid_argument] on a complete tuple, on an
    arity mismatch, and on an evidence value outside its attribute's
    domain.
    Counts [gibbs.chains] in [telemetry] (default {!Telemetry.global}) —
    the denominator the {!Quality} ensemble-health report uses to turn
    [degrade.*] counts into shares. *)

val step : Prob.Rng.t -> chain -> unit
(** Resample every missing attribute once, in attribute order, in place:
    the chain's {!current} point is updated and nothing is copied. On a
    table hit a step allocates nothing beyond the RNG's output. *)

val current : chain -> int array
(** The chain's live complete point (evidence slots fixed, missing slots
    as of the last {!step}). Not a copy: it changes on the next step and
    must not be mutated by the caller. *)

val sweep : Prob.Rng.t -> chain -> int array
(** [sweep rng c] is [step rng c] followed by a copy of [current c]: the
    resulting complete point as a fresh array. Draws exactly the same
    random numbers as [step]. *)

type estimate = {
  tuple : Relation.Tuple.t;
  missing : int list;  (** missing attribute indices, ascending *)
  cards : int array;  (** their cardinalities, same order *)
  joint : Prob.Dist.t;  (** joint distribution in mixed-radix code order *)
  samples_used : int;
}

val estimate_of_counts : Relation.Tuple.t -> int list -> int array ->
  float array -> int -> estimate
(** [estimate_of_counts tup missing cards counts n] is the estimate from
    [counts], a dense array indexed by the mixed-radix code of the values
    of [missing] (ascending, with cardinalities [cards]) and summing to
    [n > 0] samples: frequencies [c /. n], then {!Prob.Dist.smooth}. The
    one estimate rule shared by {!estimate_of_points} and
    {!Sample_bag.estimate}; the arrays are taken, not copied. *)

val estimate_of_points : sampler -> Relation.Tuple.t -> int array list ->
  estimate
(** Empirical (smoothed) joint distribution of the tuple's missing
    attributes over a bag of complete points — used both by [run] and by
    the sample-sharing tuple-DAG strategy. Raises [Invalid_argument] on an
    empty bag. *)

val marginal : estimate -> int -> Prob.Dist.t
(** Marginal distribution of one missing attribute of an estimate. *)

val run : ?config:config -> Prob.Rng.t -> sampler -> Relation.Tuple.t ->
  estimate
(** Tuple-at-a-time inference for one tuple: burn-in, then N recorded
    sweeps, then the empirical joint estimate. *)
