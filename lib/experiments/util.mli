(** Small helpers shared by the experiment drivers. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them when the list is shorter). *)

val avg_by : ('a -> float) -> 'a list -> float
(** Mean of a projection; 0 on the empty list. *)

val streams : Prob.Rng.t -> string -> int -> Prob.Rng.t
(** [streams rng] takes one seed from [rng] and returns [stream]:
    [stream purpose k] is an independent generator for one purpose of an
    experiment (its data, its workloads, its samplers), derived from
    (seed, purpose, k) alone, as the benchmark's streams are. An
    experiment that draws its workloads and its Gibbs runs from separate
    streams measures the same workloads whatever number of draws a
    sampler consumes. *)
