(** Evidence-keyed posterior cache for the serving hot path.

    Algorithm 2's ensemble vote is a pure function of the model and the
    queried tuple's {e observed evidence signature}: the voter set is
    determined by which rule bodies hold among the tuple's known values,
    and — for a fixed lattice — only the attributes mentioned by at least
    one rule body ({!Lattice.body_attrs}) can change it. Real workloads
    contain many tuples sharing identical known-value contexts, so every
    repeated signature re-pays the lattice match + vote for nothing.
    This module memoizes those posteriors across requests, batches and
    domains of the serving path ({!Infer_single.infer}'s [?cache]).
    Gibbs samplers do not use it: their conditionals go through the
    model epoch's conditional tables ({!Kernel}).

    {2 Key derivation}

    A cache key is [(model epoch, attribute, voting method, signature)]
    where the signature is the tuple's cells restricted to the target
    attribute's lattice-relevant context: one digit per
    [Lattice.body_attrs (Model.lattice model a)] entry, [0] for a missing
    cell and [v + 1] for a known value [v] (a mixed-radix digit string in
    radix [cardinality + 1]). Two tuples that agree on those cells receive
    {e bit-identical} posteriors from {!Infer_single.infer}, so a cached
    distribution is exactly the value the uncached computation would have
    produced — the cache can only change wall time, never output.

    {2 Invalidation}

    The model {e epoch} ({!Model.epoch} — process-unique, assigned at
    construction) is part of every key, so a retrained, reloaded or
    otherwise replaced model can never be served another model's
    posteriors: its keys simply never match. Stale-epoch entries are
    reclaimed lazily by LRU eviction, or eagerly via {!invalidate_stale}.

    {2 Concurrency and budget}

    The table is sharded (key-hash → shard), each shard a mutex-protected
    hash table threaded onto an intrusive LRU list, evicted
    least-recently-used-first whenever the shard exceeds its slice of the
    byte budget. All operations are domain-safe; a lookup takes exactly
    one shard lock.

    {2 Fault injection}

    While {!Fault_inject} voter drops are active
    ([voter_drop_rate > 0]) the cache is bypassed entirely — degraded
    posteriors are never stored and never served, so disabling the fault
    configuration cannot leak a degraded distribution into clean runs
    (the fault config can change without a model-epoch change, so keying
    alone would not protect this). *)

type t

val default_max_bytes : int
(** 64 MiB. *)

val create : ?shards:int -> ?max_bytes:int -> ?telemetry:Telemetry.t ->
  unit -> t
(** [shards] (default 16, rounded up to a power of two) independent
    mutex-protected LRU shards; [max_bytes] (default
    {!default_max_bytes}) total byte budget, split evenly across shards.
    [telemetry] (default {!Telemetry.global}) receives the [cache.*]
    counters, gauges and the lookup-latency histogram. *)

(** {1 Evidence codes}

    The wrapping full-traversal mixed-radix codes shared with the
    fault-injection sites (ISSUE: [Stdlib.Hashtbl.hash]'s bounded
    traversal made wide tuples systematically collide). *)

val tuple_code : cards:int array -> Relation.Tuple.t -> int
(** Mixed-radix code of every cell of the tuple — digit [0] for a
    missing cell, [v + 1] for value [v], radix [cards.(i) + 1] — folded
    through a splitmix64 finalizer per cell so {e every} cell influences
    the result even when the exact code would overflow (unlike
    [Stdlib.Hashtbl.hash], whose bounded traversal ignores the tail of
    wide tuples). Raises [Invalid_argument] on a [cards]/tuple arity
    mismatch. *)

val evidence_key : cards:int array -> Relation.Tuple.t -> int -> int
(** [tuple_code] further combined with the target attribute index — the
    stable per-task key used by the voter-drop and forced-nonconvergence
    fault sites. *)

val method_code : Voting.method_ -> int
(** Dense injective encoding of the four voting methods (0..3). *)

val signature : Model.t -> Relation.Tuple.t -> int -> int array
(** The lattice-relevant evidence digits described above — exposed for
    tests and key inspection. *)

(** {1 Lookup} *)

val find : t -> Model.t -> method_:Voting.method_ ->
  Relation.Tuple.t -> int -> Prob.Dist.t option
(** Lookup-only probe: the cached posterior for the task's evidence
    signature, or [None] without computing anything. The serving
    engine's overload ladder leans on this for its cache-hit-only rung —
    under pressure a hit is served for free and a miss is shed rather
    than computed. Counts [cache.hits] / [cache.misses] and observes
    [cache.lookup_seconds]; returns [None] unconditionally (nothing
    counted) while voter-drop fault injection is active, so a degraded
    generation can never satisfy a pressure probe. *)

type segment
(** The lookups of one batch segment, for request dedup. *)

val new_segment : unit -> segment
(** An empty segment. *)

val find_or_compute : ?segment:segment -> t -> Model.t ->
  method_:Voting.method_ -> Relation.Tuple.t -> int ->
  (unit -> Prob.Dist.t) -> Prob.Dist.t
(** [find_or_compute t model ~method_ tup a f] — the cached posterior for
    the task's evidence signature, or [f ()] computed once and stored:
    one probe, and on a miss one store. Counts [cache.hits] /
    [cache.misses] and observes [cache.lookup_seconds]; bypasses the
    cache (straight to [f ()], nothing counted or stored) while
    voter-drop fault injection is active.

    [segment] makes request dedup cost nothing beyond the probe: a
    lookup whose evidence signature an earlier lookup of the same
    segment already asked for (which computed it, or found it cached)
    is a repeat, answered by that posterior, and adds one to
    [cache.dedup_fanout] — the count {!prewarm} reports for the same
    tasks. The segment remembers the keys it has seen; it lives as long
    as the caller keeps it, and belongs to one domain. *)

val prewarm : t -> Model.t -> method_:Voting.method_ ->
  compute:(Relation.Tuple.t -> int -> Prob.Dist.t) ->
  Relation.Tuple.t list -> int * int
(** Workload-level request dedup: walk every [(tuple, missing attribute)]
    task of the workload in order, group tasks by cache key, compute each
    {e distinct} posterior once (via [compute], stored in the cache) and
    let the run's own lookups fan the result out. Returns
    [(distinct, fanout)] where [fanout = tasks − distinct] is the number
    of tasks served by another task's computation; adds it to the
    [cache.dedup_fanout] counter. Emits one [cache.prewarm] trace slice.
    A no-op (returning [(0, 0)]) while voter-drop injection is active. *)

(** {1 Maintenance} *)

val invalidate_stale : t -> current:Model.t -> unit
(** Eagerly drop every entry whose epoch differs from [current]'s.
    Correctness never depends on calling this — epochs are part of the
    key — it only releases memory sooner than LRU churn would. *)

val clear : t -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dedup_fanout : int;
  entries : int;
  bytes : int;
}

val stats : t -> stats
(** Cumulative counters plus current occupancy, summed across shards. *)

val hit_rate : t -> float
(** hits / (hits + misses), or [0.] before any probe. *)

val reachable_bytes : t -> int
(** Measured heap footprint: [Obj.reachable_words] over every shard
    table (each walked under its lock), in bytes. The accounted budget
    ({!stats}[.bytes], maintained from the per-entry estimate) must stay
    at or above this so the byte budget is a true upper bound — the
    resources report and the test suite cross-check the two. O(entries);
    meant for stats/report paths, not the serving hot path. *)

val publish : t -> unit
(** Refresh the [cache.bytes] / [cache.entries] gauges in the cache's
    telemetry registry (counters and the latency histogram are recorded
    live). *)
