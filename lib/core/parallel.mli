(** Multicore workload inference: persistent domain pool + work stealing.

    Distinct incomplete tuples are independent inference tasks, but the
    tuple DAG (Algorithm 3) couples them through sample sharing. Instead
    of the static per-domain chunks of the seed implementation — which
    forfeited cross-chunk sharing and serialized behind the slowest
    chunk — the scheduler makes every DAG node a stealable task on
    per-worker deques ({!Wsdeque}): roots are dealt round-robin in task
    order, and when a node completes, subsumees whose parents have all
    finished either complete outright on donated samples or re-enter the
    deques. Domains come from the process-wide {!Domain_pool}. Each
    worker samples with its own {!Gibbs.sampler} (its own probe
    counters), and all of them read and fill the model epoch's shared
    conditional tables ({!Kernel}), which outlive the run.

    {b Determinism.} Each task draws from an RNG stream seeded by its
    node index in the deterministic tuple DAG — a stable task identity —
    and donation pulls parent samples in ascending node order,
    oldest-first, only after every parent has completed. Consequently a
    fixed [seed] yields bit-identical estimates and identical
    sweep/recorded/shared counters for any [domains] value and any steal
    interleaving; only [wall_seconds] varies.

    Cross-node sharing is global (not chunk-local), so tuple-DAG runs do
    strictly fewer sweeps than the seed's static partition at every
    domain count. Steal counts, queue depths, and memo hit rates are
    recorded in the {!Telemetry} registry. *)

type fault_policy =
  | Fail_fast  (** first task exception aborts the pool and re-raises *)
  | Skip_and_report
      (** a task exception is contained to its tuple: the tuple (and its
          DAG descendants, which would otherwise inherit a truncated
          donation stream) is skipped and reported; every other task runs
          to completion *)

type tuple_fault = {
  node : int;  (** node index in the tuple DAG *)
  tuple : Relation.Tuple.t;
  error : Error.t;
  upstream : int option;
      (** [Some r] when the tuple was skipped only because ancestor node
          [r] failed (error code [task.upstream_failed]); [None] when
          the task itself raised *)
}

type contained = {
  result : Workload.result;  (** estimates for the surviving tuples *)
  faults : tuple_fault list;  (** skipped tuples, in node order *)
}

val run_contained : ?config:Gibbs.config -> ?strategy:Workload.strategy ->
  ?method_:Voting.method_ -> ?memoize:bool -> ?domains:int ->
  ?telemetry:Telemetry.t -> ?policy:fault_policy ->
  ?quality:Quality.t -> ?request_flow:int -> seed:int -> Model.t ->
  Relation.Tuple.t list -> contained
(** [domains] defaults to [Domain.recommended_domain_count ()], capped
    by the number of distinct tuples; it must be [>= 1]. Estimates are
    returned in first-seen workload order. [telemetry] (default
    {!Telemetry.global}) receives counters [parallel.tasks],
    [parallel.steals], [parallel.sweeps], [parallel.shared], gauge
    [parallel.domains], histograms [parallel.queue_depth.max] and
    [gibbs.memo_hit_rate], and span [parallel.run].

    [memoize] (default [true]) is {!Gibbs.sampler}'s: whether workers
    read and fill the conditional tables. Stored posteriors are
    bit-identical to recomputed ones and per-task RNG streams are
    untouched, so a memoized run's estimates equal an unmemoized run's
    at any [domains] count (asserted by the test suite).

    [strategy] defaults to [Tuple_dag]. [Tuple_at_a_time] uses the same
    scheduler with no sharing edges. [All_at_a_time] is a single global
    chain and runs sequentially on the calling domain via
    {!Workload.run}; per-task containment does not apply to it.

    {b Fault containment.} Under [policy = Skip_and_report] (default
    [Fail_fast]) a task exception no longer unwinds the domain pool: the
    offending tuple is recorded in [faults] with the structured
    {!Error.t} ({!Error.of_exn}), its DAG descendants are marked skipped
    with code [task.upstream_failed] naming the root cause, and all
    remaining tasks run to completion. Because every task's RNG stream
    is seeded by its node index and donations are pulled only from fully
    completed ancestors, the surviving tuples' estimates are
    bit-identical to a fault-free run at any [domains] count. Counters
    [fault.task_failures], [fault.tuples_skipped], and
    [fault.upstream_skipped] land in [telemetry].
    {!Fault_inject.should_fail_task} (keyed by node index) injects
    deterministic task faults (code [fault_inject.task]) for testing.

    [quality], when given, observes the merged estimates after all
    sampling completes ({!Quality.attach_model} +
    {!Quality.observe_estimates}), on the orchestrating domain only.
    The monitor consumes no inference RNG and no worker ever sees it,
    so a quality-monitored run is bit-identical to an unmonitored one
    at any [domains] count (asserted by the test suite).

    [request_flow], when given, is a serving-request flow id
    ({!Trace.request_flow_id}): the worker that executes node 0 emits a
    [serve]/[serve.request] {!Trace.flow_end} on its own track just
    before the task slice, terminating the daemon's admission → batch →
    task arrow. Pure observation — no effect on scheduling or output. *)

val run : ?config:Gibbs.config -> ?strategy:Workload.strategy ->
  ?method_:Voting.method_ -> ?memoize:bool -> ?domains:int ->
  ?telemetry:Telemetry.t -> ?quality:Quality.t ->
  seed:int -> Model.t -> Relation.Tuple.t list -> Workload.result
(** [run_contained] under [Fail_fast], returning only the result — the
    pre-containment interface, unchanged. *)

val partition : int -> Relation.Tuple.t list -> Relation.Tuple.t list list
(** The seed implementation's subsumption-aware static partition
    (itemset-sorted round-robin deal into at most [chunks] non-empty
    buckets). No longer used by [run]; kept as the baseline that
    benchmarks measure the work-stealing scheduler against. *)
