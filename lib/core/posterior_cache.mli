(** The serving path's view of the posterior store.

    Algorithm 2's ensemble vote for attribute [a] is a pure function of
    the model and the tuple's evidence over [a]'s lattice-relevant
    attributes ({!Lattice.body_attrs}): tuples that agree there receive
    bit-identical posteriors. The model epoch's compiled kernel keeps
    one conditional table per voting method and attribute keyed by
    exactly that context ({!Kernel}); Gibbs samplers read and fill it.
    This module stores nothing of its own. It is the counting handle
    through which single-missing inference ({!Infer_single.infer}'s
    [?cache]) and the serving engine probe and fill the same tables, so
    a posterior computed for a served request is there for a Gibbs
    conditional of the same epoch, and the other way round.

    {2 Invalidation}

    The tables belong to the kernel of one {!Model.epoch}
    (process-unique), so a retrained, reloaded or otherwise replaced
    model starts empty and can never be served another model's
    posteriors. A stale epoch's tables go with its kernel
    ({!Kernel.invalidate_stale}).

    {2 Memory policy}

    The hashed tables of one kernel share one byte budget
    ({!Kernel.budget_bytes}, 64 MiB); a store past it is declined, not
    evicted, and counted in [evictions]. Some requests are never
    cached: while the kernel is disabled, while {!Fault_inject} voter
    drops are active (degraded posteriors must never be stored or
    served), and for attributes whose context code does not fit 62 bits
    (kernel fallback). Such requests are computed every time, count no
    probe, and {!find} answers [None] for them, so the engine's
    cache-hit-only rung sheds them. *)

type t

val create : ?telemetry:Telemetry.t -> unit -> t
(** A handle with zeroed counters. [telemetry] (default
    {!Telemetry.global}) receives the [cache.*] counters, gauges and the
    lookup-latency histogram. *)

val find : t -> Model.t -> method_:Voting.method_ ->
  Relation.Tuple.t -> int -> Prob.Dist.t option
(** Lookup-only probe: the stored posterior for the task's evidence
    context, or [None] without computing anything. The serving engine's
    overload ladder leans on this for its cache-hit-only rung — under
    pressure a hit is served for free and a miss is shed rather than
    computed. Counts [cache.hits] / [cache.misses] and observes
    [cache.lookup_seconds]; answers [None] uncounted for a request that
    is never cached (see above). The tuple must have the schema's arity
    and in-range values. *)

type segment
(** The lookups of one batch segment, for request dedup. *)

val new_segment : unit -> segment
(** An empty segment. *)

val find_or_compute : ?segment:segment -> t -> Model.t ->
  method_:Voting.method_ -> Relation.Tuple.t -> int ->
  (unit -> Prob.Dist.t) -> Prob.Dist.t
(** [find_or_compute t model ~method_ tup a f] — the stored posterior
    for the task's evidence context, or [f ()] computed once and
    stored: one probe, and on a miss one store. [f] must compute what
    [Infer_single.infer ~method_ model tup a] does. Counts
    [cache.hits] / [cache.misses], observes [cache.lookup_seconds], and
    counts a store the budget declined in [cache.evictions]. A request
    that is never cached goes straight to [f ()], nothing counted or
    stored.

    [segment] makes request dedup cost nothing beyond the probe: a
    lookup whose evidence context an earlier lookup of the same segment
    already asked for (which computed it, or found it stored) is a
    repeat, answered by that posterior, and adds one to
    [cache.dedup_fanout]. The segment remembers the keys it has seen; it
    lives as long as the caller keeps it, and belongs to one domain. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** stores declined because the budget was full *)
  dedup_fanout : int;
  entries : int;
      (** entries in the tables of the last epoch probed through the
          handle (all of that kernel's tables: Gibbs fills them too);
          [0] once that epoch's kernel is dropped, as after a reload *)
  bytes : int;  (** the same kernel's accounted hashed-table bytes *)
}

val stats : t -> stats
(** Cumulative counters plus current occupancy. *)

val publish : t -> unit
(** Refresh the [cache.bytes] / [cache.entries] gauges from {!stats}
    (counters and the latency histogram are recorded live; a store
    publishes too). *)
