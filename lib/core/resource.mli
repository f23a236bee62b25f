(** Resource observability: GC, allocation, memory and scheduler
    accounting — observation-only, like {!Trace} and {!Quality}.

    The paper's ensemble inference is now served by a daemon with
    request-scoped latency phases, but latency alone says nothing about
    {e resource} cost: allocation rates, GC pressure, heap growth, cache
    heap footprint, domain utilization. Those are the quantities ROADMAP
    item 2 ("compiled inference kernels … no allocation") must improve
    against a measured baseline, and the quantities a production serving
    system alarms on. This module is that baseline's source of truth.

    {2 Cost model}

    A monitor is installed process-wide (like a {!Trace} sink). Every
    hot-path hook ({!alloc_span} in [Infer_single.infer] /
    [Gibbs.chain]) starts with a single atomic load and a branch — the
    disabled cost is one conditional. When enabled, a hook reads
    {!Clock.allocated_bytes} (domain-local counters, no synchronization)
    before and after the wrapped computation and records the delta in a
    reservoir histogram.

    {2 Determinism}

    Monitoring only observes: it never touches an RNG, a sampler or a
    model, so monitored runs are bit-identical to unmonitored runs (the
    test suite asserts this). GC counters are published as {e deltas}
    since the previous {!sample} — {!Telemetry} counters are monotone
    and [Gc.quick_stat] totals are process-cumulative, so each sample
    adds only what happened since the last one.

    {2 Names}

    Counters: [gc.minor_collections], [gc.major_collections],
    [gc.compactions], [mem.allocated_bytes], [mem.promoted_bytes].
    Gauges: [mem.heap_bytes], [mem.top_heap_bytes]. Histograms (fed by
    the inference hooks): [mem.alloc_per_infer_bytes],
    [mem.alloc_per_chain_bytes]. The scheduler's [sched.*] companions
    ([sched.utilization], [sched.busy_ns], [sched.idle_ns]) are
    published by {!Workload}'s scheduler from its per-worker task
    stamps; this module additionally keeps the latest per-domain
    utilization snapshot for the labeled
    [mrsl_domain_utilization{domain="N"}] Prometheus series. All names
    are catalogued in METRICS.md. *)

type t
(** A monitor: a telemetry registry plus the last-published
    [Gc.quick_stat] snapshot (the delta baseline). *)

val create : ?telemetry:Telemetry.t -> unit -> t
(** A monitor publishing into [telemetry] (default {!Telemetry.global}).
    Creation takes the baseline snapshot but installs nothing. *)

val install : t -> unit
(** Make [t] the process-wide monitor: hot-path hooks start recording,
    and a [Gc.create_alarm] is installed that (at the end of each major
    collection on the installing domain) emits a [gc.major] instant
    into the Chrome trace on the monotonic {!Clock}, via the lock-free
    {!Trace.try_instant} — the alarm can interrupt a thread holding a
    mutex mid-allocation, so the handler never locks and in particular
    never touches the (mutex-protected) telemetry registry; counters
    refresh at explicit {!sample} points instead. Installing over an
    existing monitor replaces it. *)

val uninstall : unit -> t option
(** Stop monitoring (deletes the GC alarm, publishes a final sample);
    returns the monitor that was installed. *)

val installed : unit -> t option

val enabled : unit -> bool
(** One atomic load — the hot-path gate. *)

val monitored : ?telemetry:Telemetry.t -> (unit -> 'a) -> 'a
(** Run [f] with a fresh installed monitor, uninstalling it afterwards
    (even on exceptions). A monitor that was installed beforehand is
    re-installed — not dropped — when the scope exits; re-installation
    re-baselines its delta snapshot, so GC activity inside the scope is
    published exactly once and back-to-back {!sample}s around a
    [monitored] window stay monotone. *)

val sample : t -> unit
(** Publish deltas of [Gc.quick_stat] / {!Clock.allocated_bytes} since the
    previous sample as [gc.*] / [mem.*] counters, and refresh the heap
    gauges. Thread-safe; deltas are clamped at zero so a sample can
    never violate counter monotonicity. *)

val sample_current : unit -> unit
(** {!sample} the installed monitor, if any — called by the serving
    daemon before a [/metrics] scrape or a stats op so scraped values
    are fresh even between major collections. *)

val alloc_span : ?telemetry:Telemetry.t -> string -> (unit -> 'a) -> 'a
(** [alloc_span name f] — [f ()], recording the bytes it allocated (on
    the calling domain) into histogram [name] when a monitor is
    enabled. Disabled cost: one atomic load and a tail call. *)

val set_utilization : (int * float) list -> unit
(** Record the latest per-worker busy-fraction snapshot (worker slot →
    utilization in [0, 1]), called by {!Workload}'s scheduler after each run.
    Kept (not aggregated) so the Prometheus exposition can emit one
    labeled [mrsl_domain_utilization{domain="N"}] series per slot. *)

val utilization : unit -> (int * float) list
(** The latest snapshot recorded by {!set_utilization}, sorted by worker
    slot; empty before any pooled run. *)

val report : ?model:Model.t -> unit -> Telemetry.Json.t
(** A point-in-time resources report: process-cumulative GC counts
    ([gc]), heap and allocation totals ([mem]), the latest per-domain
    utilization ([domains]), and — when [model] is given — the
    accounted-vs-reachable byte cross-check of its epoch's hashed
    conditional tables ([cache]: {!Kernel.usage}[.bytes] against
    {!Kernel.reachable_bytes}, with their ratio). Backs the serving
    stats op's [resources] block and [mrsl resources]. *)
