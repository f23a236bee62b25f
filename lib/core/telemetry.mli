(** Machine-readable performance telemetry.

    A registry of named metrics written from any domain and snapshotted to
    JSON — the substrate of the BENCH_*.json artifacts that the CI
    regression gate consumes, and of the task-count/utilization/memo-hit-
    rate instrumentation inside {!Workload}.

    Four metric kinds:

    - {e counters} — monotonically increasing ints ([incr] / [add]).
      Incremented with an atomic; safe and cheap from any domain.
    - {e gauges} — a current float value; the snapshot records both the
      last and the maximum observed.
    - {e histograms} — float observations summarized as
      count/min/max/mean/p50/p90/p99.
    - {e spans} — wall- and CPU-clocked sections ([span]), accumulated
      across calls.

    Metric names are free-form strings; dotted paths
    ([parallel.tasks], [gibbs.memo_hit_rate]) are conventional. *)

(** Minimal JSON values: emitter and parser, no external dependencies.
    Floats are printed with enough digits to round-trip; non-finite
    floats are emitted as [null] (JSON has no representation for them). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val to_string : ?pretty:bool -> t -> string
  (** [pretty] (default [true]) indents objects and lists. *)

  val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
  (** [to_string], appended to a buffer. *)

  val float_repr : float -> string
  (** The printed form of a finite float: ["%.1f"] for an integer below
      1e15, otherwise ["%.15g"] when that parses back to the same
      double, else ["%.17g"]. Integers and 2^-24 <= |f| < 1 (posterior
      probabilities) are printed without the C formatter: the digits
      come from exact integer arithmetic and the parse-back is decided
      against the double's rounding interval, byte-identical to the
      rule above. Other values go through [Printf]. *)

  val add_float : Buffer.t -> float -> unit
  (** Append a float as {!to_string} prints [Float f]: {!float_repr}, or
      [null] for NaN and infinities. *)

  val of_string : ?max_depth:int -> string -> t
  (** Raises {!Parse_error} on malformed input, and on arrays and
      objects nested deeper than [max_depth] (default: unbounded) — the
      bound is checked before descending, so a hostile frame is refused
      after [max_depth + 1] bytes of brackets. Numbers with a fraction
      or exponent parse as [Float], others as [Int]. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on other constructors. *)

  val to_float : t -> float
  (** [Int] and [Float] as a float; raises [Parse_error] otherwise. *)

  val equal : t -> t -> bool
  (** Structural equality, with [Int n] equal to [Float (float n)] and
      object fields compared order-insensitively. *)
end

type t
(** A metric registry. All operations are thread- and domain-safe. *)

val create : unit -> t

val global : t
(** The process-wide default registry; the sink used by {!Workload}
    when no explicit registry is passed. *)

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
(** [incr ?by t name] adds [by] (default 1; must be [>= 0], negative
    increments raise [Invalid_argument] — counters are monotone). *)

val add : t -> string -> int -> unit
(** [add t name n] = [incr ~by:n t name]. *)

val counter : t -> string -> int
(** Current value; [0] if the counter was never touched. *)

val snapshot_counters : t -> (string * int) list
(** Every counter of the registry with its current value, sorted by
    name: a bulk read for callers that list or diff a whole registry
    (tests, tools). {!Quality}'s health report and the quality CLI read
    single counters with {!counter}. *)

(** {1 Gauges} *)

val gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option

(** {1 Histograms} *)

val observe : t -> string -> float -> unit

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val histogram : t -> string -> summary option
(** count/min/max/mean are exact over every observation. Percentiles are
    estimated from a uniform reservoir of at most 8192 observations
    maintained by Vitter's Algorithm R: once full, observation [i]
    replaces a uniformly random slot with probability [8192/i], so every
    observation — early or late — is equally likely to be in the sample
    (the seed implementation kept only the {e first} 8192, biasing long
    runs toward warm-up behavior). Replacement draws come from a
    splitmix64 stream seeded by the metric name, so the reservoir is a
    deterministic function of the observation sequence. *)

(** {1 Spans} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Times [f ()] (wall via the monotonic {!Clock}, CPU via [Sys.time])
    and accumulates into the named span; re-raises [f]'s exceptions
    after recording. Durations are clamped at 0, and the monotonic
    source cannot step backwards under NTP adjustments the way the
    previous [Unix.gettimeofday] clock could. *)

(** {1 Snapshot} *)

val to_json : t -> Json.t
(** Snapshot every metric, keys sorted, as
    [{"counters": {...}, "gauges": {...}, "histograms": {...},
      "spans": {...}}]. *)

val reset : t -> unit
(** Drop every metric (used between benchmark sections). *)
