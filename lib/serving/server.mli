(** The [mrsl serve] event loop: sockets, batching, admission, swap.

    A single-threaded [Unix.select] loop (inference parallelism lives
    inside {!Engine} via {!Mrsl.Parallel}'s domain pool, so the
    transport needs no threads): accept connections on one endpoint,
    reassemble line frames per connection ({!Protocol.Framing}), push
    parsed requests through the bounded {!Admission} queue, and — once
    per loop iteration — drain up to [batch_max] of them into one
    {!Engine.handle_batch} call. Batching is what lets identical
    concurrent requests from different clients share one posterior
    computation: the first one's cache probe computes it, the rest
    hit it.

    {2 Hostile-traffic defenses}

    Every limit answers with a structured error and its own counter, so
    an operator can tell shedding (the defenses working) from failure:

    - {e connection cap} — past [max_conns] live connections, an accept
      is answered with one [Scheduler/serve.conn_rejected] line and
      closed immediately, never admitted to the select set
      ([serve.conn_rejected]); the same reject fires for any accepted
      descriptor numbered at or above [FD_SETSIZE] (1024), which
      [Unix.select] cannot represent — a hard floor under the
      configured cap, so a flood can never push an unrepresentable fd
      into the select set and crash the loop with [EINVAL];
    - {e idle reaper} — a connection that completes no frame for
      [idle_timeout] seconds while nothing of its is queued is killed
      ([serve.idle_killed]); byte-dripping slow-loris input does not
      reset the timer, only completed frames do;
    - {e output ceiling} — a peer that stops reading while responses
      pile up is dropped once its buffer passes [out_buf_max] bytes
      ([serve.out_buf_killed]); and because per-connection ceilings
      compose — [max_conns] peers each just under [out_buf_max] is
      gigabytes with every individual limit respected — an {e
      aggregate} budget [out_buf_total] bounds the sum across all
      connections, killing the largest buffers first until the rest
      fits (also [serve.out_buf_killed]);
    - {e request deadlines} — each admitted request carries a latency
      budget (the request's own [deadline_ms], else
      [default_deadline]); a request still queued past its budget is
      shed with [Scheduler/serve.deadline_exceeded] instead of being
      computed ([serve.deadline_exceeded]);
    - {e load-shedding ladder} — admission-queue overflow is refused
      with [serve.overloaded] as before; when the queue is at or above
      [shed_watermark] of capacity at drain time the batch runs on
      {!Engine.Cache_only}: posterior-cache hits are answered
      bit-identically for free, everything else is shed with
      [serve.shed].

    Sheds and kills count their own [serve.*] counters, {e not}
    [serve.errors] — shedding is the ladder working, not a failure.

    {2 Fault injection}

    Three {!Mrsl.Fault_inject} sites exercise the defenses from inside:
    torn frames (a read delivers a prefix, then the connection dies),
    stalled writes (a flush moves one byte), and connection drops at
    answer-delivery time. Each injected event counts
    [fault.injected.torn_frames] / [.stalled_writes] / [.conn_drops].

    {2 Request-scoped observability}

    Every admitted request carries a lifecycle record stamped on the
    monotonic clock at admission, batch drain, engine answer, and
    post-batch flush. After the flush the finalizer turns the deltas
    into the phase histograms [serve.queue_wait_seconds] /
    [serve.compute_seconds] / [serve.flush_wait_seconds], the
    end-to-end [serve.latency_seconds] (admission → flush; the three
    phases sum to it by construction), and an outcome-labelled
    [serve.latency_seconds.<outcome>] ({!Engine.outcome_label}). Each
    request also gets a deterministic trace flow
    ({!Mrsl.Trace.request_flow_id}): started on the server-loop track
    at admission, terminated inside the answering [serve.batch] slice,
    and — for multi-missing inference — continued onto the worker
    domain's task slice. A [serve.request.done] trace instant carries
    the phase breakdown and outcome. With [access_log] set, finalized
    requests are written as JSON lines under the deterministic sampling
    policy described at {!type-config}. All of it is observation-only:
    served bytes are bit-identical with tracing and logging on or off.

    A connection whose first frame is an HTTP GET line is answered as
    HTTP and closed: [GET /metrics] returns the live Prometheus
    exposition of the engine's telemetry registry
    ({!Mrsl.Trace.prometheus_exposition}, counted as
    [serve.metrics_scrapes]); any other path returns 404.

    Shutdown — a [shutdown] request, [Atomic.set stop true], or (as
    wired by the CLI) SIGTERM/SIGINT — is graceful: the listener closes
    first, every queued request is still answered, every response
    buffer is flushed, and a Unix-socket path is unlinked. A raised
    [hup] flag (SIGHUP under the CLI) triggers {!Engine.reload} between
    batches; in-flight requests are never dropped by the swap. *)

type config = {
  endpoint : Protocol.endpoint;
  batch_max : int;  (** max requests drained into one engine batch *)
  queue_capacity : int;  (** admission bound *)
  max_frame : int;  (** per-connection line bound, bytes *)
  tick : float;  (** select timeout, seconds — stop/hup poll latency *)
  max_conns : int;
      (** live-connection cap — excess accepts rejected; fds [select]
          cannot represent (>= 1024) are rejected regardless *)
  idle_timeout : float;
      (** seconds without a completed frame before an idle connection
          is killed; [0.] disables the reaper *)
  out_buf_max : int;
      (** per-connection response-buffer ceiling, bytes *)
  out_buf_total : int;
      (** aggregate response-buffer budget across all connections,
          bytes — largest buffers are killed first past it *)
  default_deadline : float;
      (** latency budget, seconds, for requests that carry no
          [deadline_ms]; [infinity] disables the default budget *)
  shed_watermark : float;
      (** queue-occupancy fraction at which batches degrade to
          cache-hit-only ({!Engine.Cache_only}) *)
  access_log : out_channel option;
      (** structured JSON access log, one object per logged request
          ([ts], [seq], [id], [op], [outcome], [conn], [epoch],
          [queue_wait_ms], [compute_ms], [flush_ms], [total_ms]);
          flushed per line; [None] disables *)
  slow_ms : float;
      (** requests whose end-to-end latency exceeds this are always
          logged, regardless of sampling *)
  log_sample : float;
      (** fraction of ordinary (ok / cache-hit, not slow) requests to
          log, decided by a deterministic splitmix draw keyed on
          [(engine seed, admission seq)] — same seed + workload, same
          sampled lines; errors, sheds, and deadline expiries are
          always logged *)
}

val default_config : Protocol.endpoint -> config
(** [batch_max = 64], [queue_capacity = 1024],
    [max_frame = Protocol.Framing.default_max_frame], [tick = 0.05],
    [max_conns = 1000] (under [FD_SETSIZE] with room for the listener,
    stdio, and the engine's own descriptors), [idle_timeout = 30.],
    [out_buf_max = 4 MiB], [out_buf_total = 64 MiB],
    [default_deadline = 30.], [shed_watermark = 0.75],
    [access_log = None], [slow_ms = 100.], [log_sample = 1.0]. *)

val run :
  ?stop:bool Atomic.t ->
  ?hup:bool Atomic.t ->
  ?on_ready:(unit -> unit) ->
  config ->
  Engine.t ->
  unit
(** Serve until shut down. Installs the [SIGPIPE]-ignore disposition
    (a peer vanishing between select and write must not kill the
    daemon). [on_ready] fires once the endpoint is bound and listening
    (tests and benches connect from another domain on it). [stop]
    forces a graceful shutdown when set; [hup] is consumed (reset to
    [false]) and triggers a model reload. All internal timing
    (deadlines, idle reaping, drain bound, latency histograms) uses the
    monotonic {!Mrsl.Clock}, immune to wall-clock steps. Raises
    [Unix.Unix_error] when the endpoint cannot be bound. *)
