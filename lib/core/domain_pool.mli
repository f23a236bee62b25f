(** Persistent domain pool.

    Spawning fresh domains on every multi-domain
    {!Workload.run_contained} would pay domain start-up (minor-heap
    creation, STW registration) per call. This pool spawns domains
    lazily, parks them on a condition variable between jobs, and reuses
    them for the life of the process. Workers are shut down and joined
    via [at_exit]. *)

type t

val get : unit -> t
(** The process-wide pool. *)

val size : t -> int
(** Domains currently alive in the pool (monitoring only). *)

val run : t -> workers:int -> (int -> unit) -> unit
(** [run t ~workers f] executes [f 0 .. f (workers - 1)] concurrently
    and returns when all have finished: [f 0] on the calling domain,
    the rest on pool domains (spawning new ones only when no parked
    domain is free). If any [f i] raises, the first exception observed
    is re-raised after every worker has finished. Raises
    [Invalid_argument] when [workers < 1]. Must not be called from
    inside a pool worker (no nested fan-out). *)
