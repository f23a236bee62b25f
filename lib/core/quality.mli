(** Statistical quality observability: online calibration, drift, and
    ensemble-health monitoring.

    The paper evaluates MRSL once, offline, by KL divergence against the
    true BN posterior (Section VI). A system that {e serves} derived
    probabilities needs the same question answered continuously: are the
    probabilities still trustworthy? This module turns the paper's
    one-shot evaluation metrics into always-on monitored quantities,
    layered on the existing {!Telemetry} / {!Trace} stack:

    - a {b shadow-masking evaluator}: a deterministic, seeded fraction of
      {e known} cells is masked, re-inferred single-attribute style, and
      the posterior scored against the held-out truth — Brier score, log
      loss, top-1 accuracy;
    - an {b online calibration monitor}: fixed-width reliability bins
      over top-1 confidence yielding ECE / MCE and an exportable
      reliability-diagram table;
    - a {b drift detector}: the complete part's empirical marginal per
      attribute (the lattice root's CPD) against the aggregate inferred
      posterior, as Jensen–Shannon / Hellinger / ε-smoothed KL
      ({!Prob.Divergence}), thresholded into alerts;
    - {b ensemble-health counters} per MRSL stratum: voters per task,
      voter-specificity strata, root-only tasks, degradation-ladder rung
      shares ({!Infer_single}'s [degrade.*] path), and the Gibbs
      nonconvergence share ([degrade.nonconverged] / [gibbs.checked]):
      of the chain nodes {!Workload.run_contained}[ ~retry] checked, the
      share that ran out of retry budget unconverged.

    {b Observation only.} A monitor never feeds back into inference: it
    consumes no inference RNG, shares no sampler state, and all hooks
    ({!Workload.run}'s [?quality], {!shadow_eval}) run outside the
    sampling loops. A quality-monitored run is bit-identical to an
    unmonitored one (asserted by the test suite).

    {b Determinism.} Cell masking is a pure function of
    [(config.seed, row, attr)] — independent of call order, domain
    count, and scheduler interleavings — so two monitors with equal
    configs over equal data produce identical reports, which is what
    lets CI gate the [QUALITY_*.json] artifact against a checked-in
    baseline ([ci/quality_gate.exe]). *)

type config = {
  mask_fraction : float;
      (** fraction of known cells shadow-masked, in [0, 1] (0.2) *)
  seed : int;  (** masking-decision seed (2011) *)
  bins : int;  (** fixed-width reliability bins (10) *)
  drift_threshold : float;
      (** per-attribute JS divergence above which drift alerts (0.05) *)
  sharpen : float;
      (** posterior temperature applied {e to the shadow copies only}
          before scoring: every probability is raised to this power and
          renormalized. 1.0 (default) is the identity; > 1 produces
          overconfident predictions. This is the calibration-regression
          injection hook the CI negative test uses — it never touches
          the probabilities a run actually returns. *)
}

val default_config : config

type t
(** A quality monitor: scoring, calibration, drift, and health
    accumulators plus a telemetry sink. Internally locked — safe to
    share across domains, though the standard hooks only observe from
    the orchestrating domain. *)

val create : ?config:config -> ?telemetry:Telemetry.t -> unit -> t
(** [telemetry] (default {!Telemetry.global}) receives the [quality.*]
    counters/histograms as observations stream in and the [quality.*]
    gauges on {!publish}. Raises [Invalid_argument] on a mask fraction
    outside [0, 1], [bins < 1], or [sharpen <= 0]. *)

val config : t -> config

val should_mask : config -> row:int -> attr:int -> bool
(** The deterministic cell-selection predicate:
    [Fault_inject.unit_float ~seed ~site:row ~key:attr < mask_fraction]
    (a splitmix64 finalizer over [(seed, row, attr)]). Pure —
    same config, same cell, same answer, at any domain count. *)

val sharpen : Prob.Dist.t -> float -> Prob.Dist.t
(** [sharpen d gamma] — each probability raised to [gamma], then
    renormalized (temperature scaling). Exposed for the injection hook
    and its tests. *)

(** {1 Observation entry points} *)

val attach_model : t -> Model.t -> unit
(** Capture the drift reference: per-attribute names and complete-part
    empirical marginals (each lattice root's CPD). Idempotent for the
    same schema shape; raises [Invalid_argument] if a different arity
    was already attached. Called implicitly by {!shadow_eval} and the
    {!Workload.run} hook. *)

val shadow_eval : ?method_:Voting.method_ -> t -> Model.t ->
  Relation.Tuple.t array -> int
(** Run the shadow-masking evaluator: for every known cell selected by
    {!should_mask}, mask it, re-infer the attribute from the remaining
    evidence ({!Infer_single.explain}, so the degradation rung and voter
    set are captured), and score the posterior against the held-out
    value. Returns the number of cells scored. Deterministic, RNG-free,
    and side-effect-free on the model and tuples (cells are masked on
    copies). *)

val score_cell : t -> attr:int -> truth:int -> Prob.Dist.t -> unit
(** Record one prediction against its held-out truth: updates the
    Brier / log-loss / top-1 sums, the reliability bins, the drift
    posterior aggregate, and the [quality.cells] counter plus
    [quality.confidence] histogram in the sink. Emits one
    [quality.scores] trace-counter sample per 64 cells when tracing is
    enabled. Raises [Invalid_argument] when [truth] is outside the
    distribution's support. *)

val observe_voters : t -> Meta_rule.t list -> unit
(** Record the voter set of one inference task into the ensemble-health
    accumulators ([quality.voters.count] / [quality.voters.specificity]
    histograms, [quality.voters.root_only] counter for tasks whose only
    voter is the specificity-0 root). *)

val observe_rung : t -> Infer_single.rung -> unit
(** Record the degradation rung one task took. {!shadow_eval} calls
    this; exposed for callers scoring cells by hand. *)

val observe_estimates : t ->
  (Relation.Tuple.t * Gibbs.estimate) list -> unit
(** Feed a workload's per-tuple estimates into the drift aggregate: each
    estimate's per-attribute marginals join the running mean posterior
    that {!drift_report} compares against the empirical marginals.
    Requires {!attach_model} first (the {!Workload.run} [?quality] hook
    does both). *)

(** {1 Reports} *)

type bin = {
  lo : float;
  hi : float;  (** the bin's confidence interval [lo, hi) *)
  count : int;
  confidence : float;  (** mean top-1 confidence of the bin; 0 if empty *)
  accuracy : float;  (** empirical top-1 accuracy of the bin; 0 if empty *)
}

val reliability : t -> bin array
(** The reliability-diagram table: [config.bins] fixed-width bins over
    top-1 confidence. A confidence of exactly 1.0 lands in the last
    bin. *)

val ece : t -> float
(** Expected calibration error: Σ_b (n_b / N) · |accuracy_b −
    confidence_b| over non-empty bins; 0 when nothing was scored. *)

val mce : t -> float
(** Maximum calibration error: max_b |accuracy_b − confidence_b| over
    non-empty bins; 0 when nothing was scored. *)

type scores = {
  cells : int;  (** shadow cells scored *)
  brier : float;  (** mean multiclass Brier score (lower is better) *)
  log_loss : float;  (** mean −ln p(truth) (lower is better) *)
  top1_accuracy : float;  (** share of cells whose mode was the truth *)
  ece : float;
  mce : float;
}

val scores : t -> scores
(** All zero (cells = 0) before any scoring. *)

type drift = {
  attr : int;
  name : string;
  observations : int;  (** posteriors aggregated for this attribute *)
  js : float;  (** JS(empirical marginal ‖ mean posterior) *)
  hellinger : float;
  kl : float;  (** ε-smoothed KL (ε = 1e-6) — always finite *)
  alert : bool;  (** [js > config.drift_threshold] *)
}

val drift_report : t -> drift list
(** One row per attribute that has received at least one posterior, in
    attribute order. Empty before {!attach_model}. *)

type health = {
  tasks : int;  (** inference tasks whose voter sets were observed *)
  voters_per_task : float;  (** mean voters per task; 0 when no tasks *)
  root_only_share : float;  (** tasks with only the stratum-0 root *)
  strata : (int * int) list;
      (** voter-specificity stratum -> voters selected, ascending *)
  degrade_marginal_share : float;
      (** rung-2 tasks / observed tasks (shadow-observed rungs) *)
  degrade_uniform_share : float;  (** rung-3 tasks / observed tasks *)
  chains : int;  (** [gibbs.chains] read from [registry] *)
  checked_runs : int;
      (** [gibbs.checked] read from [registry]: chain nodes checked by
          {!Workload.run_contained}[ ~retry] *)
  nonconverged_share : float;
      (** [degrade.nonconverged] / [gibbs.checked]; 0 when unchecked *)
}

val health : ?registry:Telemetry.t -> t -> health
(** Ensemble health: voter strata and rung shares from the monitor's own
    accumulators; chain, convergence-check, and nonconvergence counts
    read from [registry] (default {!Telemetry.global}), where the
    sampling layers count them. *)

(** {1 Export} *)

val publish : ?registry:Telemetry.t -> t -> unit
(** Push the current report into the sink as [quality.*] gauges and the
    [quality.drift.alerts] counter, and emit one [quality.drift.alert]
    trace instant per alerted attribute. Safe to call repeatedly (an
    online monitor republisnes on a cadence); gauges overwrite, the
    alert counter counts alert {e transitions} per publish call. *)

val to_json : ?registry:Telemetry.t -> t -> Telemetry.Json.t
(** The full machine-readable quality report — the [QUALITY_*.json]
    artifact schema consumed by [ci/quality_gate.exe]:
    [{"schema_version"; "config"; "scores"; "reliability"; "drift";
      "health"}]. *)

val render : ?registry:Telemetry.t -> t -> string
(** Human-readable report: scores, reliability diagram, per-attribute
    drift, ensemble health — the body of [mrsl quality] and the bench's
    [quality] section. *)
