(** Ordered Gibbs sampling over MRSL models (Section V-A).

    A tuple with one missing value is answered by Algorithm 2's vote
    ({!vote}), as in the paper; Gibbs is for several missing values.
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
    attribute the kernel could not compile. A {!chain} resolves its
    tables when it starts, so [Kernel.set_enabled] and voter-drop
    injection take effect from the next chain on, not in the middle of
    one; {!conditional} and {!vote} read them on every call. Stored
    posteriors are bit-identical to recomputed ones, so [memoize] never
    changes sampling output — only wall time. Raises [Invalid_argument]
    when a schema cardinality is [< 1]. *)

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

type chain
(** One Gibbs chain: a tuple's evidence plus the current assignment of its
    missing attributes. *)

val chain : ?telemetry:Telemetry.t -> Prob.Rng.t -> sampler ->
  Relation.Tuple.t -> chain
(** Start a chain for an incomplete tuple: missing attributes are
    initialized by sampling their single-attribute MRSL estimates given
    the evidence. The chain resolves its probes here, once: each missing
    attribute's conditional table (or none, when the sampler would
    bypass it now), the evidence's share of its context code, and the
    place value of every other missing attribute in that code. Raises
    [Invalid_argument] on a complete tuple, on an arity mismatch, and on
    an evidence value outside its attribute's domain.
    Counts [gibbs.chains] in [telemetry] (default {!Telemetry.global}) —
    the denominator the {!Quality} ensemble-health report uses to turn
    [degrade.*] counts into shares. *)

val step : Prob.Rng.t -> chain -> unit
(** Resample every missing attribute once, in attribute order, in place:
    the chain's {!current} point is updated and nothing is copied. Each
    attribute's conditional is read from the table its chain resolved at
    start, at the evidence code plus one digit per missing attribute
    (and computed, then stored, on a miss); it is in hand when the
    attribute is drawn. The draws, probe counts and stores are those of
    {!conditional} at the same points. On a table hit a step allocates
    nothing beyond the RNG's output. *)

val current : chain -> int array
(** The chain's live complete point (evidence slots fixed, missing slots
    as of the last {!step}). Not a copy: it changes on the next step and
    must not be mutated by the caller. *)

val start : ?telemetry:Telemetry.t -> burn_in:int -> Prob.Rng.t -> sampler ->
  Relation.Tuple.t -> chain
(** [start ~burn_in rng s tup] is {!chain} followed by [burn_in] {!step}s:
    a chain ready to record. The one chain start and burn-in of every
    inference path. *)

val fill : ?telemetry:Telemetry.t -> burn_in:int -> Prob.Rng.t -> sampler ->
  Sample_bag.t -> unit
(** [fill ~burn_in rng s bag] {!start}s a chain over the bag's tuple, then
    {!step}s it and {!Sample_bag.record}s each resulting point until the
    bag is full: [burn_in] + (capacity − count) sweeps. *)

type estimate = {
  tuple : Relation.Tuple.t;
  missing : int list;  (** missing attribute indices, ascending *)
  cards : int array;  (** their cardinalities, same order *)
  joint : Prob.Dist.t;  (** joint distribution in mixed-radix code order *)
  samples_used : int;
      (** recorded rows the joint was counted from; [0] for a {!vote}:
          exact, nothing sampled *)
}

val estimate_of_bag : Sample_bag.t -> estimate
(** Empirical (smoothed) joint distribution of the bag's tuple's missing
    attributes: the bag's {!Sample_bag.counts} over its {!Sample_bag.count}
    rows as frequencies, then {!Prob.Dist.smooth}. The one estimate of
    recorded samples. Raises [Invalid_argument] on an empty bag. *)

val estimate_of_points : sampler -> Relation.Tuple.t -> int array list ->
  estimate
(** The same estimate over a list of complete points, counted
    independently of the bag's row layout: the reference the tests hold
    {!estimate_of_bag} to, and a way to build an estimate by hand. No
    inference path calls it. Raises [Invalid_argument] on an empty
    list. *)

val marginal : estimate -> int -> Prob.Dist.t
(** Marginal distribution of one missing attribute of an estimate. *)

val vote : sampler -> Relation.Tuple.t -> estimate
(** Algorithm 2 for a tuple with exactly one missing cell [a]: the
    estimate whose [joint] is {!conditional} of [a] given the tuple's
    evidence, itself and not re-smoothed, with [samples_used = 0]. A
    chain over such a tuple resamples [a] from that very conditional at
    every step, so its stationary distribution is the conditional and
    B + N sweeps would only add sampling noise. The vote makes the
    probe (or, with the tables bypassed, the computation) a chain step
    makes: bit-identical to [Infer_single.infer ~method_] under the
    sampler's voting method, and to what [mrsl serve] answers. Draws no
    random number, starts no chain and counts no [gibbs.chains]. Raises
    [Invalid_argument] unless exactly one cell is missing, and on the
    arity and range errors of {!conditional}. *)

val run : ?config:config -> Prob.Rng.t -> sampler -> Relation.Tuple.t ->
  estimate
(** Tuple-at-a-time inference for one tuple: {!fill} a bag of capacity N
    after B burn-in sweeps, then {!estimate_of_bag}. A single-missing
    tuple takes the {!vote} instead: no chain, no draw from the RNG. *)
