(** Deterministic fault injection across the MRSL pipeline.

    Chaos testing for the library's fault-containment layer: seeded,
    rate-configurable injection of (1) task exceptions inside the
    workload scheduler ({!Workload}), (2) corrupted CSV rows
    ({!corrupt_csv}, consumed by the lenient reader), (3) forced Gibbs
    non-convergence (the convergence check of
    {!Workload.run_contained}[ ~retry]), and (4) dropped
    voter sets (the {!Infer_single} degradation ladder).

    {b Determinism.} Every decision is a pure function of
    [(seed, site, key)] — a splitmix64-style hash compared against the
    configured rate — independent of call order, domain count, and
    which worker runs a task. Re-running with the same seed injects
    exactly the same faults at exactly the same places, which is what
    makes the containment guarantees testable (the scheduler test
    asserts surviving estimates are bit-identical at domain counts 1/2/4
    under injection).

    Injection is process-global and {e off by default} ({!disabled});
    nothing in the library pays more than a single atomic read when it is
    inactive. *)

type config = {
  seed : int;
  task_failure_rate : float;  (** P(a scheduler task raises), per node *)
  csv_corruption_rate : float;  (** P(a CSV data row is corrupted), per line *)
  nonconvergence_rate : float;
      (** P(a tuple's R̂ check is forced to fail), per tuple *)
  voter_drop_rate : float;
      (** P(an inference task sees an empty voter set), per task *)
  torn_frame_rate : float;
      (** P(a serving read is cut mid-frame and the peer vanishes), per read *)
  stall_write_rate : float;
      (** P(a serving write stalls or trickles one byte), per write *)
  conn_drop_rate : float;
      (** P(a connection dies before its batch's response is sent), per
          response delivery *)
}

val disabled : config
(** Seed 0, all rates 0 — the default state. *)

val configure : config -> unit
(** Install a configuration globally. Raises [Invalid_argument] when any
    rate is outside [0, 1]. *)

val reset : unit -> unit
(** Back to {!disabled}. *)

val current : unit -> config
val active : unit -> bool

val with_config : config -> (unit -> 'a) -> 'a
(** Scoped configuration: install, run, restore the previous
    configuration even on exceptions. The tool of choice in tests. *)

val install_from_env : unit -> bool
(** Read [MRSL_FAULT_SEED], [MRSL_FAULT_TASK_RATE], [MRSL_FAULT_CSV_RATE],
    [MRSL_FAULT_NONCONV_RATE], [MRSL_FAULT_VOTER_RATE],
    [MRSL_FAULT_TORN_FRAME_RATE], [MRSL_FAULT_STALL_WRITE_RATE],
    [MRSL_FAULT_CONN_DROP_RATE] and {!configure} accordingly. Returns
    [false] (and leaves the state untouched) when none of the variables
    is set. Called by the CLI and the bench harness at startup,
    deliberately {e not} by the library. *)

val describe : config -> string
(** One-line human-readable summary. *)

(** {1 Decision points}

    Each consults the current configuration; [key] identifies the
    decision site stably (node index, 1-based CSV line, tuple hash). *)

val should_fail_task : node:int -> bool
val should_corrupt_row : line:int -> bool
val should_force_nonconvergence : key:int -> bool
val should_drop_voters : key:int -> bool

val should_tear_frame : key:int -> bool
(** Serving chaos: cut this socket read mid-frame and treat the peer as
    gone — exercises the truncated-frame accounting. [key] should mix
    the connection id with a per-connection read counter. *)

val should_stall_write : key:int -> bool
(** Serving chaos: this socket write makes no (or one byte of) progress,
    as if the peer stopped draining — exercises output-buffer bounds. *)

val should_drop_conn : key:int -> bool
(** Serving chaos: this connection dies between batch execution and
    response delivery — exercises the closed-connection guards. *)

(** {1 Task keys}

    Wrapping full-traversal mixed-radix codes: the stable keys of the
    voter-drop and forced-nonconvergence sites. ([Stdlib.Hashtbl.hash]'s
    bounded traversal ignored the tail of wide tuples, so tuples that
    differ only in late cells shared one decision.) *)

val tuple_code : cards:int array -> int option array -> int
(** Mixed-radix code of every cell of the tuple — digit [0] for a
    missing cell, [v + 1] for value [v], radix [cards.(i) + 1] — folded
    through a splitmix64 finalizer per cell so {e every} cell influences
    the result even when the exact code would overflow. Raises
    [Invalid_argument] on a [cards]/tuple arity mismatch. *)

val evidence_key : cards:int array -> int option array -> int -> int
(** [tuple_code] further combined with the target attribute index — the
    per-task key of the voter-drop and forced-nonconvergence sites. *)

val hash : seed:int -> site:int -> key:int -> int64
(** The keyed hash behind every decision point:
    {!Prob.Rng.mix64}[(seed·0x9E3779B97F4A7C15 + site·0xC2B2AE3D27D4EB4F
    + key)], wrapping. {!unit_float} maps it to [0, 1);
    {!Quality.should_mask} keys that draw by (row, attribute). *)

val unit_float : seed:int -> site:int -> key:int -> float
(** The raw deterministic uniform draw in [0, 1) behind every decision
    point — exposed so callers needing reproducible randomness outside a
    rate check (e.g. {!Serving.Client}'s backoff jitter) share the same
    splitmix64 machinery instead of growing ad-hoc hashes. *)

val corrupt_csv : string -> string * int list
(** Corrupt a CSV document's data rows at the configured
    [csv_corruption_rate]: per hit, one of three shapes (extra trailing
    field / unterminated quote / out-of-domain value), chosen
    deterministically. The header line is never corrupted. Returns the
    corrupted document and the 1-based line numbers touched. *)
