(** Monotonic time source, exact allocation reads, and the one
    measurement primitive.

    [Unix.gettimeofday] is a wall clock; NTP steps can move it backwards,
    which made {!Telemetry.span} durations and {!Workload}'s wall
    readings occasionally negative. This module reads [CLOCK_MONOTONIC]
    via a tiny C stub (with a guarded realtime fallback on exotic hosts)
    and is the single time source for spans, trace events, wall
    readings and bench timings. *)

val now_ns : unit -> int
(** Nanoseconds since an unspecified (boot-relative) epoch. Monotonic:
    never decreases within a process. *)

val now : unit -> float
(** [now_ns] in seconds. *)

val duration_ns : start:int -> stop:int -> int
(** [max 0 (stop - start)] — clamped so that even a non-monotonic
    fallback source can never yield a negative duration. *)

val duration : start:float -> stop:float -> float
(** Same clamp in seconds. *)

(** {2 Allocation} *)

val allocated_bytes : unit -> float
(** Bytes allocated so far by the calling domain: [Gc.minor_words] plus
    the words allocated directly in the major heap ([Gc.counters]' major
    words less its promoted words), times the word size. Exact at every
    instant — unlike the stdlib's allocated-bytes total, whose minor
    component ([Gc.counters]') reads an eighth of the truth between
    minor collections on OCaml 5.1. The one allocation read of the bench
    and {!Resource}. *)

val allocated_since : float -> float
(** [allocated_since a0] — bytes allocated since [a0 = allocated_bytes ()],
    less what the two reads themselves allocate; never negative. *)

(** {2 Measurement} *)

type measurement = {
  ns_per_run : float;  (** median over the loops of loop ns / reps *)
  alloc_bytes_per_run : float;  (** median over the loops, exact *)
  minor_gcs : int;  (** minor collections during the timed loops *)
  major_gcs : int;  (** major collections during the timed loops *)
  loops : int;
  reps : int;  (** runs per loop *)
  spread : float;
      (** interquartile range of the loops' ns/run over its median *)
}

val measure : (unit -> unit) -> measurement
(** [measure f] runs [f] once to warm up and to size the loops, takes a
    major collection, then times 11 loops of [reps] runs each on the
    monotonic clock, reading exact allocation and GC counts around each
    loop. [reps] is what fills about 20 ms judged by the warm run. Allocation is the calling domain's: work [f]
    hands to other domains is timed but not counted. *)

type pair = {
  a : measurement;
  b : measurement;
  ratio : float;  (** median over the pairs of [a]'s loop ns / [b]'s *)
}

val measure_pair : (unit -> unit) -> (unit -> unit) -> pair
(** [measure_pair fa fb] — the A-vs-B form of {!measure}: 21 interleaved
    pairs of equal-length loops, the two sides' order alternating from
    pair to pair so drift and warm-up hit both. [reps] is what fills
    about 20 ms on the slower side's warm run. The ratio is the
    median of the per-pair ratios, so one noisy loop moves neither it
    nor a gate on it. *)
