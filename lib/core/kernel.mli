(** Compiled per-epoch inference kernels (ROADMAP item 2).

    {!Infer_single.infer}'s interpreted vote walks pointer-heavy
    structures per call: {!Lattice.matching} re-enumerates subsets of
    the tuple's known cells through a hashtable of {!Mining.Itemset}
    keys, allocating a combination odometer, itemsets and list cells on
    every query. This module compiles each per-attribute lattice — once
    per {!Model.epoch} — into flat arrays so a vote becomes a linear
    scan over ints and floats:

    - the evidence context as an {e exact} packed code over
      [body_attrs] digits — one bit field per attribute, digit [0] for
      a missing cell, [v + 1] for value [v]: a mixed-radix code with
      power-of-two place values, so equal codes mean equal evidence;
    - every meta-rule body as a {e (mask, bits)} pair over those same
      fields, so a rule matches iff [code land mask = bits] — one
      [land] and one compare per rule, covering known-ness and value
      equality at once (a missing cell's [0] digit never equals the
      [v + 1] a rule demands);
    - all CPDs as {e one contiguous float array} ([(nrules + 1) ×
      head_card], root row last) indexed by rule id;
    - subsumption ({!Lattice.most_specific}) as {e precomputed
      strict-superset index ranges} probed against the matched-rule
      {e bitset}, so the Best-voters filter is a bit test instead of an
      [O(n²)] itemset scan.

    {2 Bit-exactness}

    The interpreted path remains the oracle. A compiled vote replays the
    {e exact} float program of the interpreted one: voters are combined
    in {!Lattice.matching}'s list order (reverse discovery order, root
    last), accumulated position-wise in that order, and normalized by
    the very same {!Prob.Dist.of_weights} — so compiled posteriors are
    bit-identical to interpreted ones (the differential fuzz suite and
    the CI [client verify] pass assert this). Whenever the compiled path
    cannot guarantee that (a packed code wider than 62 bits, a combine
    the interpreted ladder would degrade on), it
    returns [None] and the caller runs the interpreted path, telemetry
    and all.

    {2 Fallback and overflow}

    The packed context code overflows a native [int] on wide lattices
    over large cardinalities (the digit fields sum past 62 bits).
    Overflow is detected at {e compile} time from the schema's
    cardinalities; an overflowing attribute is marked fallback, served
    by the interpreted path, counted on [kernel.fallback], and has no
    conditional table: its posteriors are computed on every request and
    never stored.

    {2 Lifecycle}

    Kernels are cached in a small process-global registry keyed by
    {!Model.epoch} (process-unique), compiled on first use and rebuilt
    at every epoch bump — a hot-reloaded serving engine re-compiles
    {e before} mutating any serving state, so a failed reload leaves the
    old kernel serving and a successful one can never serve a stale
    kernel. While {!Fault_inject} voter drops are active the kernel
    steps aside entirely, tables included.

    {2 Conditional tables}

    Each kernel also carries one conditional table per voting method and
    attribute: "posterior of [a] given this evidence context" for the
    epoch. It is the model's only posterior store: every {!Gibbs}
    sampler of the model and {!Infer_single.infer}[ ~cache] (single-
    missing inference and the serving engine, through
    {!Posterior_cache}) read and fill it. The key is the exact context
    over [body_attrs] as a mixed-radix code (radix [card + 1], the
    digits above), so a stored entry is exactly what the computation
    would return. A context space of at most [2^16] codes is a dense
    array indexed by the code, allocated on the first probe and read
    without a lock; a larger one is a locked hash table. The hashed
    tables of one kernel share one byte budget ({!budget_bytes}); once
    it is full, further stores are declined, never evicted. {!table}
    declines whenever {!posterior} would: kernel disabled, voter drops
    active, or a fallback attribute. A new epoch starts with empty
    tables.

    Counters: [kernel.compiles], [kernel.hits], [kernel.fallback]
    (catalogued in METRICS.md). *)

type t
(** A compiled model: one kernel slot per attribute. *)

val set_enabled : bool -> unit
(** Process-global switch (CLI [--kernel] / [--no-kernel]); default
    enabled. Disabling makes {!posterior} and {!table} return [None]
    unconditionally, restoring the pure interpreted path. *)

val enabled : unit -> bool
(** One atomic load. *)

val budget_bytes : int
(** 64 MiB: what the hashed conditional tables of one kernel epoch may
    hold together, at 8·(card + 7) accounted bytes per entry. *)

val compile : ?budget_bytes:int -> Model.t -> t
(** Compile every attribute's lattice. Pure construction: no registry
    interaction, no telemetry. [budget_bytes] (default {!budget_bytes})
    bounds the hashed tables. Exposed for tests and benchmarks; normal
    callers want {!ensure}. *)

val ensure : ?telemetry:Telemetry.t -> ?budget_bytes:int -> Model.t -> t
(** The registry's kernel for the model's epoch, compiling (and
    counting [kernel.compiles], with a [kernel.compile] trace slice) on
    first use. [budget_bytes] only applies when this call compiles.
    Thread-safe: concurrent callers race on a CAS and one compilation
    wins. Works whether or not the kernel is {!enabled} — the serving
    engine precompiles at load/reload time so the first request never
    pays the build. *)

val invalidate_stale : current:Model.t -> unit
(** Drop every registry entry whose epoch differs from [current]'s.
    Correctness never depends on this — epochs are process-unique and
    part of the registry key — it only releases memory earlier than the
    registry's cap of eight kernels would. *)

val attr_compiled : t -> int -> bool
(** Whether the attribute's lattice compiled without fallback (its
    packed context code fits in 62 bits). Exposed for the overflow
    regression tests. *)

val posterior :
  ?telemetry:Telemetry.t ->
  method_:Voting.method_ ->
  Model.t ->
  Relation.Tuple.t ->
  int ->
  Prob.Dist.t option
(** The compiled vote: [Some d] with [d] bit-identical to what
    {!Infer_single.infer}'s interpreted rung would produce, or [None]
    when the kernel is disabled, voter-drop injection is active, the
    attribute is marked fallback, or the combine would take the
    interpreted path's degradation ladder (all but the first counted on
    [kernel.fallback]; successes counted on [kernel.hits]). The caller
    must have validated the task ({!Infer_single} does). *)

type table
(** One conditional table (see above). *)

val table : method_:Voting.method_ -> Model.t -> int -> table option
(** The table of attribute [a] under [method_] in the kernel of the
    model's epoch (compiled on first use, like {!ensure}), or [None]
    when the kernel is disabled, voter drops are active, or [a] did not
    compile. Allocates nothing once the kernel exists. *)

val context_code : table -> int array -> int
(** The context code of [x], a point whose [-1] cells are missing.
    Unchecked: [x] must have the schema's arity and values in
    [-1 .. card - 1]. *)

val place : table -> int -> int
(** [place tb attr] — attribute [attr]'s place value in [tb]'s context
    code: a cell holding value [v] adds [(v + 1) * place tb attr] to it.
    [0] for an attribute outside the context, so always for the table's
    own attribute. A linear scan of the context, meant for a {!Gibbs}
    chain that resolves its codes once and then adds one digit per
    missing cell. *)

val tuple_context_code : table -> Relation.Tuple.t -> int
(** The same code for a tuple: equal to {!context_code} of the point
    with [-1] for each missing cell. The tuple must have the schema's
    arity and in-range values. *)

val find : table -> int -> Prob.Dist.t
(** The stored posterior of a context code; raises [Not_found]. A dense
    probe allocates nothing. *)

val store : table -> int -> Prob.Dist.t -> bool
(** Store the posterior {!Infer_single.infer} computes for a context
    code under the table's method. It must not be mutated afterwards.
    [false] when a hashed table declined it because the kernel's budget
    is full; the table is then unchanged. *)

type usage = {
  entries : int;  (** stores across every table of the kernel *)
  bytes : int;  (** accounted bytes of its hashed tables *)
}

val usage : int -> usage
(** [usage epoch] — what the registry's kernel of that epoch holds;
    zero when no kernel of the epoch is registered (never compiled, or
    dropped by {!invalidate_stale}). Compiles nothing. *)

val reachable_bytes : int -> int
(** [reachable_bytes epoch] — the measured heap footprint of that
    kernel's hashed tables ([Obj.reachable_words], each walked under its
    lock), in bytes; [0] when none is registered. {!usage}[.bytes] must
    stay at or above its growth, so the budget is a true upper bound.
    O(entries): for report paths, not the hot path. *)
