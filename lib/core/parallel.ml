(* Multicore entry points of Algorithm 3's executor ({!Workload}). *)

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

let run_contained ?config ?strategy ?method_ ?memoize ?domains ?telemetry
    ?policy ?quality ?request_flow ~seed model workload =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Parallel.run: domains must be >= 1";
        d
    | None -> Domain.recommended_domain_count ()
  in
  Workload.run_contained ?config ?strategy ?telemetry ?policy ?quality
    ?request_flow ~domains ~seed
    (fun () -> Gibbs.sampler ?method_ ?memoize model)
    workload

let run ?config ?strategy ?method_ ?memoize ?domains ?telemetry ?quality
    ~seed model workload =
  (run_contained ?config ?strategy ?method_ ?memoize ?domains ?telemetry
     ?quality ~seed model workload)
    .result
