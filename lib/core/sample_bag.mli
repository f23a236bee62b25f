(** Flat sample stores for Algorithm 3.

    A bag holds the recorded Gibbs samples of one incomplete tuple. It
    keeps only what differs between samples: each row stores the values
    of the tuple's {e missing} attributes, in ascending attribute order,
    and rows are packed back to back in a single [int array] of
    [capacity × width] cells ([width] = number of missing attributes).
    Row [r] occupies cells [r × width .. r × width + width − 1]; rows are
    numbered in recording order, so row 0 is the oldest sample. A bag
    never grows past its capacity — the per-tuple sample target N.

    Rows are written in place: {!sweep} advances the tuple's chain with
    {!Gibbs.step} and copies the resampled values straight into the next
    row, so a recorded sample costs no point copy and no list cell.

    {b Donation plans.} ShareSamples(donor, child) of Algorithm 3 runs
    over rows, not points. For a DAG edge the donor's missing attributes
    are a superset of the child's, so a plan built once per edge (both
    executors donate along an edge exactly once) says, in donor-column
    terms, (a) which donor columns must equal the
    child's evidence values — the child's evidence on attributes the
    donor does not know — and (b) which donor column feeds each child
    column. {!share} then scans the donor's rows oldest first, tests (a)
    and copies (b) until the child is full. All-at-a-time offers full
    points instead; each bag precomputes that plan (evidence attributes
    and values) at creation.

    Estimates, sample order and counts are exactly those of a list of
    full points recorded and shared oldest first (see the differential
    suite), so the three {!Workload} strategies and {!Parallel} produce
    bit-identical results to the point-list executors they replace. *)

type t

val create : Relation.Schema.t -> capacity:int -> Relation.Tuple.t -> t
(** An empty bag for an incomplete tuple over [schema], holding at most
    [capacity] rows. Raises [Invalid_argument] when the tuple is complete,
    its arity differs from the schema's, or [capacity < 1]. *)

val tuple : t -> Relation.Tuple.t
val count : t -> int
(** Rows recorded so far. *)

val is_full : t -> bool
(** [count = capacity]. *)

val sweep : t -> Prob.Rng.t -> Gibbs.chain -> unit
(** [sweep bag rng c] runs one {!Gibbs.step} of [c] (a chain over the
    bag's tuple) and records the resulting missing values as the bag's
    next row. Raises [Invalid_argument] when the bag is full. *)

val share : donor:t -> t -> int
(** [share ~donor child] — ShareSamples(donor, child): append the
    donor's rows that agree with [child]'s evidence, oldest first, until
    [child] is full; returns how many rows were donated. [donor]'s tuple
    must subsume [child]'s (every attribute missing in [child] is
    missing in [donor], and their shared evidence agrees), else
    [Invalid_argument]. *)

val offer : t -> int array -> bool
(** [offer bag point] records the complete [point]'s missing values as a
    new row when the bag is not full and [point] agrees with the bag's
    evidence; returns whether it did. *)

val estimate : t -> Gibbs.estimate
(** Empirical (smoothed) joint distribution of the tuple's missing
    attributes: row codes are counted straight into the dense joint,
    which {!Gibbs.estimate_of_counts} turns into the estimate. Equal to {!Gibbs.estimate_of_points} over {!points}. Raises
    [Invalid_argument] on an empty bag. *)

val points : t -> int array list
(** The rows as full points (evidence filled in), oldest first. Builds
    fresh arrays; meant for diagnostics such as
    {!Diagnostics.convergence_snapshot}, not for the sampling path. *)
