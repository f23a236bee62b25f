(** Single-attribute inference (paper Algorithm 2).

    Given an incomplete tuple and the MRSL of a missing attribute, collect
    the matching meta-rules, apply a voter-selection mechanism and a voting
    scheme, and return the estimated CPD over the attribute's domain.

    {b Degradation ladder.} {!infer} never lets an empty or degenerate
    voter set escape as [Invalid_argument] from [Voting.combine]. When the
    selected voter set is empty (impossible for well-formed models — every
    lattice carries a root — but reachable through corrupt deserialized
    models or {!Fault_inject} voter drops) or the combined CPD is
    non-finite, inference degrades one rung at a time:

    + MRSL voters (the normal path);
    + the attribute's {e marginal prior} — the lattice root's CPD —
      counted as [degrade.marginal_prior] in {!Telemetry};
    + the {e uniform} distribution over the attribute's domain, counted
      as [degrade.uniform], when even the root CPD is unavailable or
      non-finite.

    Structural misuse (wrong arity, attribute not missing, index or
    value out of range) still raises [Invalid_argument] from {!infer} — or comes back
    as an [Error.Input] from {!infer_result}. *)

type rung = Voters | Marginal_prior | Uniform
(** The degradation-ladder rung an inference task actually took:
    [Voters] is the normal MRSL path, the other two are the fallback
    rungs described above. Surfaced by {!explain} (and from there by
    [mrsl explain --json] and the {!Quality} shadow evaluator) so a
    derived probability's provenance records {e how} it was derived. *)

val rung_name : rung -> string
(** ["voters"], ["marginal-prior"], ["uniform"] — the stable identifiers
    used in machine-readable output. *)

val infer : ?method_:Voting.method_ -> ?telemetry:Telemetry.t ->
  ?cache:Posterior_cache.t -> ?segment:Posterior_cache.segment -> Model.t ->
  Relation.Tuple.t -> int -> Prob.Dist.t
(** [infer model t a] — estimated distribution of the missing attribute [a]
    in [t]. The method defaults to best-averaged (the paper's most accurate
    setting). Raises [Invalid_argument] when [a] is not missing in [t] or
    out of range, or a known value of [t] is out of its attribute's
    range. Values of other missing attributes are simply absent
    evidence — the matching meta-rules condition only on known values.
    Degraded rungs are counted in [telemetry] (default
    {!Telemetry.global}); see the ladder above.

    [?cache] serves the result from the model epoch's conditional
    table and stores it there on a miss (see {!Posterior_cache}): a hit
    returns the bit-identical distribution the uncached computation
    would have produced, without re-running lattice matching or voting.
    On a hit the [degrade.*] telemetry of the original computation is
    {e not} re-counted — degradations are counted once per distinct
    evidence context, not once per request. Without [?cache] nothing is
    probed or stored. [?segment] is passed to
    {!Posterior_cache.find_or_compute}. While a {!Resource} monitor is
    installed, each computed posterior (not a hit) is observed in
    [mem.alloc_per_infer_bytes]. *)

val infer_result : ?method_:Voting.method_ -> ?telemetry:Telemetry.t ->
  ?cache:Posterior_cache.t -> ?segment:Posterior_cache.segment -> Model.t ->
  Relation.Tuple.t -> int -> (Prob.Dist.t, Error.t) result
(** Non-raising boundary variant of {!infer}: structural misuse comes back
    as [Error Input/infer.bad_task] instead of [Invalid_argument]. *)

val infer_all_missing : ?method_:Voting.method_ -> Model.t ->
  Relation.Tuple.t -> (int * Prob.Dist.t) list
(** Independent single-attribute estimates for every missing attribute of
    the tuple (the naive per-attribute baseline that multi-attribute Gibbs
    inference improves on, Section V). *)

val voters : ?method_:Voting.method_ -> Model.t -> Relation.Tuple.t -> int ->
  Meta_rule.t list
(** The selected voter set for an inference task — exposed for inspection,
    explanation, and tests. *)

val marginal_prior : Model.t -> int -> Prob.Dist.t option
(** Rung 2 of the ladder: the lattice root's CPD (the attribute's exact
    marginal over the training data), or [None] when the lattice is
    unavailable or the root CPD is non-finite. *)

val degrade : ?telemetry:Telemetry.t -> card:int -> Prob.Dist.t option ->
  Prob.Dist.t
(** The lower rungs: [degrade ~card (Some prior)] returns the prior and
    counts [degrade.marginal_prior]; [degrade ~card None] returns
    [uniform card] and counts [degrade.uniform]. Exposed so the ladder is
    unit-testable without corrupting a model. *)

type explanation = {
  estimate : Prob.Dist.t;
  contributions : (Meta_rule.t * float) list;
      (** each selected voter with its normalized vote weight (summing to
          1): uniform under the averaged scheme, support-proportional
          under the weighted scheme; empty when the task degraded below
          the voter rung *)
  rung : rung;  (** the degradation rung actually taken *)
}

val explain : ?method_:Voting.method_ -> Model.t -> Relation.Tuple.t -> int ->
  explanation
(** Like {!infer}, but also reports how much each meta-rule contributed —
    the provenance of a derived probability — and which degradation rung
    produced the estimate. Walks exactly the same ladder as {!infer}
    (fault-injected voter drops included) but records nothing in
    telemetry, so explaining a task never double-counts a degradation
    the inference already counted. *)
