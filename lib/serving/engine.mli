(** The serving engine: a loaded model plus everything needed to answer
    request batches.

    The engine owns the model, the evidence-keyed
    {!Mrsl.Posterior_cache}, and the inference configuration; {!Server}
    owns sockets and scheduling. Splitting them keeps the engine directly
    drivable from tests and benchmarks without a socket in sight.

    {2 Determinism}

    Served posteriors are bit-identical to what the one-shot CLI
    produces on the same tuples:

    - a single-missing-value request is answered by
      {!Mrsl.Infer_single.infer} — exact and RNG-free;
    - a multi-missing request runs {!Mrsl.Parallel.run_contained} over
      the one-tuple workload [{tuple}] with the engine's fixed [seed],
      so its Gibbs estimate is a deterministic function of
      [(model, tuple, seed, method, gibbs config)] — independent of
      batch composition, request order, and domain count.

    {2 Batching}

    {!handle_batch} answers a drained batch as a unit. Each
    single-missing request makes exactly one posterior-cache probe
    ({!Mrsl.Posterior_cache.find_or_compute}, with one
    {!Mrsl.Posterior_cache.segment} per batch segment); a miss computes
    and stores. Identical concurrent requests from different clients
    therefore pay one posterior computation, and every repeat of an
    evidence signature within a segment counts [cache.dedup_fanout].
    Multi-missing requests are computed once per distinct tuple per
    segment. A [reload] request splits the batch into segments:
    requests ahead of it are answered by the old model, requests behind
    it by the new one — in-flight requests are never dropped by a swap.

    {2 Response lines}

    [posterior] lines are written straight into one buffer the engine
    reuses, from per-epoch precomputed bytes (each attribute's
    [{"attr":…,"index":…,"posterior":{] opener and its values' label
    keys) and {!Mrsl.Telemetry.Json.add_float}. They are byte-identical
    to {!Protocol.ok_line} over the equivalent [Json.t] payload, which
    the tests hold as the reference. The buffer makes an engine
    single-threaded: one {!handle_batch} at a time.

    {2 Hot swap}

    {!reload} loads a model file ({!Mrsl.Model_io.load}), refuses a
    schema change ([serve.reload_schema]), swaps the engine's model,
    bumps the [serve.epoch] gauge, counts [serve.reloads], and eagerly
    drops the stale cache generation
    ({!Mrsl.Posterior_cache.invalidate_stale}). On any failure the old
    model keeps serving. *)

type config = {
  seed : int;  (** Gibbs RNG seed — fixed per engine for determinism *)
  method_ : Mrsl.Voting.method_;
  gibbs : Mrsl.Gibbs.config;
  domains : int option;
      (** worker domains for multi-missing inference; [None] = let
          {!Mrsl.Parallel.run_contained} pick *)
  cache_bytes : int;  (** posterior-cache budget *)
}

val default_config : config
(** seed 42, best-averaged voting, {!Mrsl.Gibbs.default_config},
    [domains = None], {!Mrsl.Posterior_cache.default_max_bytes}. *)

type t

val create :
  ?telemetry:Mrsl.Telemetry.t -> config:config -> model_path:string -> unit -> t
(** Load the model at [model_path] ({!Mrsl.Model_io.load} — raises on a
    missing or malformed file; the daemon should fail to start rather
    than serve nothing) and build the engine around it. [telemetry]
    (default {!Mrsl.Telemetry.global}) receives every [serve.*] metric
    and is the registry exposed on [GET /metrics]. *)

val of_model :
  ?telemetry:Mrsl.Telemetry.t ->
  config:config ->
  ?model_path:string ->
  Mrsl.Model.t ->
  t
(** Wrap an already-constructed model — the test/bench entry point.
    [model_path] (default ["<memory>"]) is what a pathless [reload]
    will try to load. *)

val model : t -> Mrsl.Model.t
val epoch : t -> int
val model_path : t -> string
val config : t -> config
val telemetry : t -> Mrsl.Telemetry.t
val cache : t -> Mrsl.Posterior_cache.t

val reload : ?path:string -> t -> (Mrsl.Model.t, Mrsl.Error.t) result
(** Swap in the model at [path] (default: the current model path; a
    given [path] becomes the new current path on success). Returns the
    new model, or — leaving the old model serving — an error:
    [Model/serve.reload] when loading fails, [Model/serve.reload_schema]
    when the new model's schema differs from the old one's (live clients
    hold tuples in the old schema's shape; refusing the swap beats
    answering them against the wrong attribute domains). *)

type pressure = Normal | Cache_only
    (** The engine rung of the overload ladder. [Normal] computes.
        [Cache_only] answers single-missing requests from the posterior
        cache when the evidence signature is already there (payload
        bit-identical to the uncontended answer) and sheds everything
        else — cache misses and all multi-missing Gibbs work — with a
        [Scheduler/serve.shed] error line, counted as [serve.shed] (not
        [serve.errors]: shedding is the ladder working, not a failure).
        {!Server} selects the rung from admission-queue occupancy. *)

type outcome = Served | Failed | Shed | Expired | Cache_hit
    (** How a request's lifecycle ended, labelling the per-outcome
        latency histograms and the access log. [Served] = a computed
        answer (or a non-infer op's reply); [Failed] = an [ok:false]
        error line; [Shed] = refused by the overload ladder;
        [Cache_hit] = answered for free from the posterior cache on the
        [Cache_only] rung. [Expired] is assigned by {!Server} to
        requests whose deadline passed while queued — the engine never
        produces it. *)

val outcome_label : outcome -> string
(** The wire/metric label: [ok], [error], [shed], [deadline_exceeded],
    [cache_hit]. *)

type answer = { line : string; outcome : outcome }
(** One response: the newline-terminated wire line plus how it ended. *)

val handle_request : t -> Protocol.request -> string
(** Answer one request — [handle_batch] on a singleton batch, outcome
    discarded. *)

val handle_batch :
  ?pressure:pressure -> ?flows:int array -> t -> Protocol.request list ->
  answer list
(** Answer a batch: one {!answer} per request, in request order. Never
    raises — per-request failures (bad labels, arity mismatches,
    contained inference faults) become [ok:false] response lines with
    [outcome = Failed] and count [serve.errors]. [pressure] (default
    [Normal]) picks the overload rung described above. Counts
    [serve.requests] / [serve.batches], observes [serve.batch_size],
    times the batch under the [serve.batch] span and trace slice.

    [flows], when given, carries each slot's serve-request flow id
    ({!Mrsl.Trace.request_flow_id}; [0] or out-of-range = untracked):
    the batch slice emits a [serve.request] {!Mrsl.Trace.flow_end} per
    tracked slot (terminating the admission arrow {!Server} started),
    and a multi-missing request restarts the flow into
    {!Mrsl.Parallel.run_contained} so the arrow continues onto the
    worker domain's task slice — one arrow per distinct deduped tuple.
    Flow emission is observation-only; answers are bit-identical with
    or without it.

    [shutdown] requests are acknowledged ([kind:"bye"]) but transport
    shutdown is the caller's job — see {!wants_shutdown}. *)

val wants_shutdown : Protocol.request list -> bool
(** Whether the batch contains a [shutdown] request. *)
