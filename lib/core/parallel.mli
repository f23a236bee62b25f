(** Multicore entry points of Algorithm 3's executor.

    {!run_contained} is {!Workload.run_contained} with a fresh
    {!Gibbs.sampler} per worker (its own probe counters; all of them read
    and fill the model epoch's shared conditional tables, {!Kernel}) and
    with domains from the process-wide {!Domain_pool}. The determinism,
    containment and telemetry contracts are {!Workload.run_contained}'s:
    a fixed [seed] yields bit-identical estimates and counters at any
    [domains] value, equal to {!Workload.run} whose RNG draws that seed.
    The types are {!Workload}'s, re-exported. *)

type fault_policy = Workload.fault_policy = Fail_fast | Skip_and_report

type tuple_fault = Workload.tuple_fault = {
  node : int;
  tuple : Relation.Tuple.t;
  error : Error.t;
  upstream : int option;
}

type contained = Workload.contained = {
  result : Workload.result;
  faults : tuple_fault list;
}

val run_contained : ?config:Gibbs.config -> ?strategy:Workload.strategy ->
  ?method_:Voting.method_ -> ?memoize:bool -> ?domains:int ->
  ?telemetry:Telemetry.t -> ?policy:fault_policy ->
  ?quality:Quality.t -> ?request_flow:int -> seed:int -> Model.t ->
  Relation.Tuple.t list -> contained
(** [domains] defaults to [Domain.recommended_domain_count ()], capped by
    the number of distinct tuples; it must be [>= 1]. [method_] and
    [memoize] are {!Gibbs.sampler}'s. *)

val run : ?config:Gibbs.config -> ?strategy:Workload.strategy ->
  ?method_:Voting.method_ -> ?memoize:bool -> ?domains:int ->
  ?telemetry:Telemetry.t -> ?quality:Quality.t ->
  seed:int -> Model.t -> Relation.Tuple.t list -> Workload.result
(** [run_contained] under [Fail_fast], returning only the result. *)
