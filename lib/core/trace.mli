(** Event-level tracing: per-domain ring buffers of timestamped events,
    exported as Chrome trace-event JSON (loadable in Perfetto / Chrome
    [about:tracing]) and summarized on the command line.

    This is the event-granular companion to the aggregate {!Telemetry}
    registry: where telemetry answers "how many tasks, what p99", a
    trace answers {e when} — which attribute's lattice build dominated
    learning, how Gibbs tasks interleaved across domains, when a chain's
    split-R̂ crossed the convergence threshold.

    {2 Cost model}

    Tracing is off by default and every emission helper starts with a
    single branch on the installed-sink option — the disabled cost is one
    atomic load and a conditional. When enabled, each domain writes into
    its own fixed-capacity ring buffer with no locks or allocation beyond
    the event record itself; on overflow events are dropped and counted
    (see {!dropped}), never resized.

    {2 Determinism}

    Event {e content} (names, categories, args, flow ids) is
    deterministic: flow ids derive from the same seed/node identities as
    the scheduler's RNG streams ({!task_flow_id}, {!share_flow_id}).
    Timestamps and the assignment of events to domain buffers are
    exempt — they reflect real scheduling. Installing a sink
    never changes inference output: instrumentation only observes. *)

(** {1 Events} *)

type arg = Int of int | Float of float | Str of string

type phase =
  | Complete of int  (** duration in ns — a Chrome ["X"] slice *)
  | Instant  (** ["i"] *)
  | Counter  (** ["C"]; args are the sampled series values *)
  | Flow_start  (** ["s"] — arrow tail *)
  | Flow_end  (** ["f"] — arrow head *)

type event = {
  name : string;
  cat : string;  (** phase bucket: [mine], [lattice], [voting], [dag],
                     [gibbs], [sched], [share], [io], … *)
  ts_ns : int;  (** monotonic {!Clock} time, relative to sink start *)
  track : int;  (** Perfetto "process": the emitting domain's id *)
  id : int;  (** flow id ([Flow_start]/[Flow_end]) or counter series id;
                 0 when unused *)
  args : (string * arg) list;
  phase : phase;
}

(** {1 Sinks} *)

type sink
(** A set of per-domain ring buffers plus the capture's start time. *)

val create : ?capacity_per_domain:int -> unit -> sink
(** [capacity_per_domain] defaults to [65536] events. *)

val install : sink -> unit
(** Make [sink] the process-wide recording target. Emission helpers are
    no-ops while no sink is installed. *)

val uninstall : unit -> sink option
(** Stop recording; returns the sink that was installed, ready for
    export. *)

val installed : unit -> sink option
val enabled : unit -> bool

val with_sink : ?capacity_per_domain:int -> (unit -> 'a) -> 'a * sink
(** Install a fresh sink around [f] (uninstalling it afterwards, even on
    exceptions) and return [f]'s result with the captured sink. *)

(** {1 Emission} — all no-ops when no sink is installed *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
val counter : ?id:int -> cat:string -> string -> (string * float) list -> unit

val try_instant : ?args:(string * arg) list -> cat:string -> string -> bool
(** Lock-free variant of {!instant} for signal-like contexts
    ([Gc.alarm] handlers): emits only when the calling domain's ring is
    already registered under the current sink, never taking the sink's
    registration lock — an alarm can interrupt a thread holding it (or
    any other mutex), and a locking emission path would self-deadlock.
    Returns whether the event was recorded; [false] means no sink, or
    this domain has not traced under the installed sink yet. *)

val complete :
  ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** Times [f] on the monotonic clock and emits one [Complete] slice;
    re-raises [f]'s exceptions after emitting. When disabled this is a
    single branch and a tail call to [f]. *)

val complete_span :
  ?args:(string * arg) list -> cat:string -> start_ns:int -> string -> unit
(** Emit a [Complete] slice (named by the trailing argument) for a
    section the caller timed itself ([start_ns] from {!Clock.now_ns}). *)

val flow_start :
  ?args:(string * arg) list -> cat:string -> id:int -> string -> unit
(** Arrow tail on the emitting domain's track; the matching {!flow_end}
    (same [cat] and [id]) may land on any track. *)

val flow_end :
  ?args:(string * arg) list -> cat:string -> id:int -> string -> unit

(** {1 Deterministic flow ids}

    Hierarchical ids stitched from the run seed and stable task
    identities (tuple-DAG node indices), so a task's ready → execute
    arrow carries the same id at any domain count. Each id is a
    splitmix64 finalizer ({!Prob.Rng.mix64}) over the seed, a per-kind
    constant (task 1, share 3, request 4) and the identity. *)

val task_flow_id : seed:int -> node:int -> int
val share_flow_id : seed:int -> parent:int -> child:int -> int

val request_flow_id : seed:int -> req:int -> int
(** Serving-request flow id: a pure function of the engine seed and the
    daemon's per-request admission sequence number, so a request's
    admission → batch → task arrows carry one id across tracks. *)

(** {1 Inspection and export} *)

val event_count : sink -> int
(** Events currently retained across all domain buffers. *)

val dropped : sink -> int
(** Events discarded because a domain's ring buffer was full. *)

val events : sink -> event list
(** All retained events, sorted by timestamp. Call only after the traced
    workload has finished (buffers are single-writer, reader-after). *)

val to_chrome_json : sink -> Telemetry.Json.t
(** Chrome trace-event JSON object format:
    [{"traceEvents": [...], "displayTimeUnit": "ms", "dropped": n,
      "trackCount": k}] with one metadata ["process_name"] record per
    domain track ([domain-<id>]), ["X"]/["i"]/["C"]/["s"]/["f"] phase
    records, and timestamps in microseconds relative to sink start.
    Loadable directly in Perfetto ([ui.perfetto.dev]). *)

val chrome_string : sink -> string
(** [to_chrome_json] rendered compactly, newline-terminated. *)

val write_chrome : sink -> string -> unit
(** Write {!chrome_string} to a file path. *)

val prometheus_exposition : Telemetry.t -> string
(** Prometheus text-exposition (version 0.0.4) of a {!Telemetry}
    registry snapshot: counters as [mrsl_<name>_total], gauges as
    [mrsl_<name>] (plus [_max]), histograms as summaries
    ([{quantile="0.5|0.9|0.99"}], [_sum], [_count]), spans as
    [_seconds_total] / [_calls_total]. Metric names are sanitized to
    [[a-zA-Z0-9_]] (dots become underscores).

    While a sink is {!install}ed the exposition also reports trace-ring
    health — [mrsl_trace_dropped_total] (events lost to ring overflow
    across all domains), [mrsl_trace_ring_capacity], and one
    [mrsl_trace_ring_events{domain="<id>"}] gauge per domain buffer — so
    a scrape of a traced daemon shows when serving-rate tracing is
    lossy. Without a sink these series are absent. *)

val register_exposition_extra : (Buffer.t -> unit) -> unit
(** Append a renderer run at the end of every {!prometheus_exposition}
    (in registration order). For series that can't ride the generic
    sanitizer — labeled families like
    [mrsl_domain_utilization{domain="N"}], registered by {!Resource} at
    module init. Renderers must append complete exposition lines. *)

val summarize : Telemetry.Json.t -> string
(** Human-readable summary of a parsed Chrome trace produced by
    {!to_chrome_json}: top slices by total duration, per-track
    utilization, counter series, and drop counts. A trace containing
    [serve]-category events (a daemon trace) additionally gets a serve section: batch count and request volume
    from the [serve.batch] slices, [serve.request] flow start/finish
    balance, per-phase (queue-wait / compute / flush) p50/p99/max
    rollups and outcome counts from the [serve.request.done] instants.
    Raises [Invalid_argument] when the JSON has no [traceEvents] array.
    Backs [mrsl_cli trace]. *)
