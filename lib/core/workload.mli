(** Multi-attribute inference over workloads of incomplete tuples
    (Section V): the three sampling strategies the paper compares, and
    Algorithm 3's one executor.

    - {e tuple-at-a-time}: an independent Gibbs chain per distinct tuple —
      the baseline of Fig 11.
    - {e tuple-DAG} (Algorithm 3): chains run only for the subsumption
      roots; a subsumee is promoted once every parent has finished,
      pulls their matching samples, and samples its own chain only if
      still short of N.
    - {e all-at-a-time}: one chain over the fully unknown tuple t*; every
      draw is offered to every workload tuple it matches. Kept for
      completeness (Section V-A shows why it wastes samples on selective
      evidence).

    Under every strategy, a tuple with exactly one missing cell takes
    Algorithm 2's vote ({!Gibbs.vote}): one probe of the model epoch's
    conditional table with the sampler's voting method, the exact
    stationary distribution of the chain it would otherwise run. Such a
    tuple subsumes no other tuple, so it is a tuple-DAG leaf: it keeps its
    node (id, edges, task and fault-injection site, so [Skip_and_report]
    is unchanged), but takes no donations, runs no chain and draws from no
    RNG stream. Its estimate has [samples_used = 0] and is bit-identical
    to [Infer_single.infer ~method_] — what [mrsl serve] answers. All-at-
    a-time offers no points to such a tuple, so under no strategy does
    another tuple's estimate depend on it.

    Tuple-at-a-time and tuple-DAG run on one scheduler: every DAG node is
    a task, and ready tasks wait on one LIFO stack under a mutex. Roots
    are pushed in node order; a subsumee is pushed when its last parent
    completes; a free worker pops the newest task, and an idle worker
    sleeps on a condition variable until a task is pushed or the run
    ends. One worker runs on the calling domain; more come from the
    process-wide {!Domain_pool}. All-at-a-time has a single chain and
    always runs on the calling domain.

    {b Determinism.} Each task draws from an RNG stream seeded by the run
    seed and its node index in the deterministic tuple DAG, and a
    subsumee pulls donations only after every parent has completed,
    parents in ascending node order, each parent's samples oldest first.
    A seed therefore yields bit-identical estimates and identical
    sweep/recorded/shared counters for any worker count and whichever
    worker runs each task; only [wall_seconds] varies. {!run} with an
    RNG [rng] equals {!run_contained} with the seed
    [Int64.to_int (Prob.Rng.bits64 rng)] at any domain count.

    Cost is reported as the number of Gibbs sweeps (sampled points,
    burn-in included) and wall-clock seconds — the two y-axes of
    Fig 11. A single-missing tuple costs 0 sweeps. *)

type strategy = Tuple_at_a_time | Tuple_dag | All_at_a_time

val strategy_name : strategy -> string

type stats = {
  sweeps : int;
      (** Gibbs draws performed, burn-in included; none for single-missing
          tuples *)
  recorded : int;  (** sample points recorded into per-tuple buffers *)
  shared : int;  (** of [recorded], how many arrived by DAG sharing *)
  wall_seconds : float;
}

type result = {
  estimates : (Relation.Tuple.t * Gibbs.estimate) list;
      (** one estimate per distinct incomplete tuple, in first-seen order *)
  stats : stats;
}

type fault_policy =
  | Fail_fast  (** first task exception aborts the run and re-raises *)
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

type check = {
  rhat : float;
      (** the final bag's split-R̂ ({!Diagnostics.split_rhat});
          [infinity] when fault injection forced the check to fail *)
  converged : bool;  (** false ⇒ degraded: budget ran out unconverged *)
  attempts : int;  (** >= 1 *)
  sweeps : int;  (** the node's sweeps across all attempts, burn-ins included *)
}
(** One node's convergence check under [run_contained ~retry]. *)

type contained = {
  result : result;  (** estimates for the surviving tuples *)
  faults : tuple_fault list;  (** skipped tuples, in node order *)
  checks : (Relation.Tuple.t * check) list;
      (** under [~retry], one entry per surviving node that ran its own
          chain, in node order; [[]] otherwise *)
}

val run_contained : ?config:Gibbs.config -> ?strategy:strategy ->
  ?method_:Voting.method_ -> ?memoize:bool -> ?domains:int ->
  ?telemetry:Telemetry.t -> ?policy:fault_policy ->
  ?retry:Diagnostics.retry_policy -> ?quality:Quality.t -> seed:int ->
  Model.t -> Relation.Tuple.t list -> contained
(** The executor. [run_contained ~seed model workload] infers the joint
    distribution of the missing values of every distinct incomplete
    tuple in [workload] with [min domains (distinct tuples)] workers (at
    least one), each sampling with its own
    [Gibbs.sampler ?method_ ?memoize model] (its own probe counters over
    the epoch's shared conditional tables). [domains] defaults to
    [Domain.recommended_domain_count ()]. Raises [Invalid_argument] when
    [domains < 1], on a bad [config] and on complete tuples. [strategy]
    defaults to [Tuple_dag]; [All_at_a_time] runs its chain on the
    calling domain from [Prob.Rng.create seed], and per-task containment
    does not apply to it.

    [telemetry] (default {!Telemetry.global}) receives the
    [workload.run] span, the [workload.sweeps] / [workload.recorded] /
    [workload.shared] / [workload.voted] counters and the
    [workload.tuples] histogram; the scheduled strategies add
    [parallel.tasks], the [parallel.domains] gauge, one
    [sched.utilization] and [gibbs.memo_hit_rate] (over the run's own
    probes) observation per worker, and [sched.busy_ns] /
    [sched.idle_ns] (time waiting for a ready task).

    {b Fault containment.} Under [policy = Skip_and_report] (default
    [Fail_fast]) a task exception does not unwind the run: the offending
    tuple is recorded in [faults] with the structured {!Error.t}
    ({!Error.of_exn}), its DAG descendants are marked skipped with code
    [task.upstream_failed] naming the root cause, and all remaining
    tasks run to completion. The surviving tuples' estimates are
    bit-identical to a fault-free run at any [domains] count. Counters
    [fault.task_failures], [fault.tuples_skipped] and
    [fault.upstream_skipped] land in [telemetry].
    {!Fault_inject.should_fail_task} (keyed by node index) injects
    deterministic task faults (code [fault_inject.task]) for testing.

    [quality], when given, observes the estimates after all sampling
    completes ({!Quality.attach_model} + {!Quality.observe_estimates}),
    on the calling domain only. The monitor consumes no inference RNG,
    so a monitored run is bit-identical to an unmonitored one.

    {b Convergence retries.} Under [retry] (default: none), every node
    that runs its own chain is checked once its bag is full: split-R̂
    over the whole bag ({!Diagnostics.split_rhat}), or a failure forced
    by {!Fault_inject.should_force_nonconvergence} keyed by
    {!Fault_inject.tuple_code} of its tuple. Each check counts
    [gibbs.checked]. While R̂ > 1.1 and the policy allows another attempt
    (at most [max_retries] more, and the node's sweeps, burn-ins
    included, within [max_total_sweeps]), the node counts
    [gibbs.retries] and replaces its bag with a fresh one of twice the
    capacity, filled by a fresh chain (burn-in included) that continues
    the node's own task RNG stream; donations are not re-taken. A node
    that exhausts the budget counts [degrade.nonconverged] and keeps its
    last estimate, flagged [converged = false] in [checks]. Voting nodes
    and nodes filled by donations alone run no chain and are not
    checked. All of this happens inside the node's task, before its
    children take donations from the final bag, so the determinism
    contract above holds with [retry] too. [workload.sweeps] and
    [workload.recorded] count every attempt. With tuple-at-a-time, a
    node's estimate and check are those of a sequential retry loop
    seeded with the node's task seed. Traced, each attempt is a
    [gibbs.attempt] slice followed by a [gibbs.convergence] counter.
    Raises [Invalid_argument] when [retry] is given with
    [All_at_a_time], or when [max_retries < 0] or
    [max_total_sweeps < 1].

    The samplers' conditionals, votes and chain initialisations read and
    fill the model epoch's conditional tables (see {!Gibbs.sampler}), so a
    run starts warm from every earlier run on the same model. Stored
    posteriors are bit-identical to recomputed ones: warm and cold runs,
    and runs with the tables on or off, produce identical estimates. *)

val run : ?config:Gibbs.config -> ?strategy:strategy -> ?max_draws:int ->
  ?telemetry:Telemetry.t -> ?quality:Quality.t -> Prob.Rng.t ->
  Gibbs.sampler -> Relation.Tuple.t list -> result
(** {!run_contained} under [Fail_fast] with one worker on the calling
    domain, sampling with [sampler] (so {!Gibbs.cache_stats} on it counts
    the run's probes). The scheduled strategies take one seed from
    [rng]; [All_at_a_time] draws its chain from [rng] itself. [max_draws]
    (default [10_000_000]) bounds the all-at-a-time chain, which
    otherwise need not terminate when some tuple's evidence is never
    hit; tuples still short of samples when the cap fires are estimated
    from what was collected (or from one forced direct chain if they
    matched nothing). *)
