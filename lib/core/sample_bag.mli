(** Flat sample stores: the one place Gibbs samples are recorded.

    A bag holds the recorded Gibbs samples of one incomplete tuple. It
    keeps only what differs between samples: each row stores the values
    of the tuple's {e missing} attributes, in ascending attribute order,
    and rows are packed back to back in a single [int array] of
    [capacity × width] cells ([width] = number of missing attributes).
    Row [r] occupies cells [r × width .. r × width + width − 1]; rows are
    numbered in recording order, so row 0 is the oldest sample. A bag
    never grows past its capacity — the per-tuple sample target N.

    Rows are written in place: a chain step is followed by {!record},
    which copies the resampled values of the chain's live point straight
    into the next row, so a recorded sample costs no point copy and no
    list cell. {!Gibbs.fill} runs a chain into a bag; {!Gibbs.estimate_of_bag}
    turns its {!counts} into an estimate; {!Diagnostics} reads its rows
    through {!value}.

    {b Donation plans.} ShareSamples(donor, child) of Algorithm 3 runs
    over rows, not points. For a DAG edge the donor's missing attributes
    are a superset of the child's, so a plan built once per edge (the
    executor donates along an edge exactly once) says, in donor-column
    terms, (a) which donor columns must equal the
    child's evidence values — the child's evidence on attributes the
    donor does not know — and (b) which donor column feeds each child
    column. {!share} then scans the donor's rows oldest first, tests (a)
    and copies (b) until the child is full. All-at-a-time offers full
    points instead; each bag precomputes that plan (evidence attributes
    and values) at creation.

    Estimates, sample order and counts are exactly those of a list of
    full points recorded and shared oldest first (see the differential
    suite), so the three {!Workload} strategies produce bit-identical
    results to the point-list executors they replace. *)

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

val cardinalities : t -> int array
(** Cardinality of each column (the missing attributes', ascending), as a
    fresh array. *)

val value : t -> int -> int -> int
(** [value bag r k] is column [k] of row [r] ([r < count]): the value of
    the [k]-th missing attribute in the [r]-th oldest sample. *)

val record : t -> int array -> unit
(** [record bag point] writes the complete [point]'s missing values as
    the bag's next row. Unchecked: [point] must agree with the bag's
    evidence (a chain's {!Gibbs.current} over the bag's tuple does).
    Recording into a full bag raises [Invalid_argument] (the row array's
    bounds check) and records nothing. *)

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

val counts : t -> float array
(** The dense joint counts: a fresh array indexed by the mixed-radix code
    of a row's values (column 0 most significant, radices
    {!cardinalities}), each row adding 1. Sums to {!count}. *)
