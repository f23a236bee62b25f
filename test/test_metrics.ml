(* Metrics-catalogue test (observability PR satellite).

   METRICS.md is the authoritative list of every metric and trace-event
   name the codebase emits. This suite fails when a name used in code is
   missing from the document, in two layers:

   - a static half: the known inventory of registry names, trace
     categories, and trace event names (kept in sync with the code by
     review) must each appear verbatim in METRICS.md;
   - a dynamic half: run a small end-to-end pipeline with tracing on and
     assert every name that actually lands in the global registry / the
     trace sink is documented.

   The dune rule declares ../METRICS.md as a test dependency so the file
   is present in the sandboxed test cwd. *)

module T = Mrsl.Telemetry
module Tr = Mrsl.Trace

let metrics_md =
  (* dune runtest runs us in _build/default/test (where the dune rule's
     [deps ../METRICS.md] places the file); a bare [dune exec] runs from
     the project root — accept both. *)
  lazy
    (let candidates = [ "../METRICS.md"; "METRICS.md" ] in
     match List.find_opt Sys.file_exists candidates with
     | Some p -> In_channel.with_open_bin p In_channel.input_all
     | None -> Alcotest.fail "METRICS.md not found next to the test binary")

let documented name =
  (* names appear in backticks in the tables *)
  Astring_like.contains (Lazy.force metrics_md) ("`" ^ name ^ "`")

let check_documented kind name =
  Alcotest.(check bool)
    (Printf.sprintf "%s %S documented in METRICS.md" kind name)
    true (documented name)

(* --- static half ----------------------------------------------------- *)

let registry_names =
  [
    "cache.bytes";
    "cache.dedup_fanout";
    "cache.entries";
    "cache.evictions";
    "cache.hits";
    "cache.lookup_seconds";
    "cache.misses";
    "csv.rows_skipped";
    "degrade.marginal_prior";
    "degrade.nonconverged";
    "degrade.uniform";
    "experiments.timed_seconds";
    "fault.injected.conn_drops";
    "fault.injected.csv_rows";
    "fault.injected.stalled_writes";
    "fault.injected.torn_frames";
    "fault.task_failures";
    "fault.tuples_skipped";
    "fault.upstream_skipped";
    "gc.compactions";
    "gc.major_collections";
    "gc.minor_collections";
    "gibbs.chains";
    "gibbs.checked";
    "gibbs.memo_hit_rate";
    "gibbs.retries";
    "kernel.compiles";
    "kernel.fallback";
    "kernel.hits";
    "mem.alloc_per_chain_bytes";
    "mem.alloc_per_infer_bytes";
    "mem.allocated_bytes";
    "mem.heap_bytes";
    "mem.promoted_bytes";
    "mem.top_heap_bytes";
    "model.learn";
    "parallel.domains";
    "parallel.tasks";
    "quality.brier";
    "quality.cells";
    "quality.confidence";
    "quality.degrade.marginal_prior_share";
    "quality.degrade.uniform_share";
    "quality.drift.alerts";
    "quality.drift.hellinger_max";
    "quality.drift.js_max";
    "quality.ece";
    "quality.log_loss";
    "quality.mce";
    "quality.nonconverged_share";
    "quality.top1_accuracy";
    "quality.voters.count";
    "quality.voters.per_task";
    "quality.voters.root_only";
    "quality.voters.root_only_share";
    "quality.voters.specificity";
    "sched.busy_ns";
    "sched.idle_ns";
    "sched.utilization";
    "serve.access_log_lines";
    "serve.batch";
    "serve.batch_size";
    "serve.batches";
    "serve.compute_seconds";
    "serve.conn_rejected";
    "serve.connections";
    "serve.deadline_exceeded";
    "serve.epoch";
    "serve.errors";
    "serve.flush_wait_seconds";
    "serve.idle_killed";
    "serve.latency_seconds";
    "serve.latency_seconds.cache_hit";
    "serve.latency_seconds.deadline_exceeded";
    "serve.latency_seconds.error";
    "serve.latency_seconds.ok";
    "serve.latency_seconds.shed";
    "serve.metrics_scrapes";
    "serve.out_buf_killed";
    "serve.overloaded";
    "serve.queue_depth";
    "serve.queue_wait_seconds";
    "serve.reloads";
    "serve.requests";
    "serve.shed";
    "workload.recorded";
    "workload.run";
    "workload.shared";
    "workload.sweeps";
    "workload.tuples";
    "workload.voted";
  ]

let trace_categories =
  [
    "cache"; "dag"; "gc"; "gibbs"; "io"; "kernel"; "lattice"; "learn";
    "mine"; "quality"; "sched"; "serve"; "share"; "voting";
  ]

let trace_event_names =
  [
    "cache.fill";
    "csv.read";
    "dag.build";
    "degrade.marginal_prior";
    "degrade.uniform";
    "gc.major";
    "gibbs.attempt";
    "gibbs.chain_init";
    "gibbs.convergence";
    "kernel.compile";
    "lattice.build";
    "mine.frequent_itemsets";
    "model.learn";
    "pool.reused";
    "quality.drift.alert";
    "quality.scores";
    "quality.shadow_eval";
    "serve.batch";
    "serve.reload";
    "serve.request";
    "serve.request.done";
    "share.donate";
    "task.run";
    "workload.node";
    "workload.run";
  ]

let test_static_catalogue () =
  List.iter (check_documented "registry name") registry_names;
  List.iter (check_documented "trace category") trace_categories;
  List.iter (check_documented "trace event") trace_event_names

(* --- dynamic half ---------------------------------------------------- *)

let test_runtime_names_documented () =
  (* Exercise learning + parallel inference with tracing enabled, then
     check that whatever names the run actually emitted are in the
     catalogue. The global registry accumulates across the whole test
     binary, so this also covers suites that ran before us. *)
  let sink = Tr.create () in
  Tr.install sink;
  Fun.protect ~finally:(fun () -> ignore (Tr.uninstall ())) @@ fun () ->
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      Helpers.dependent_schema
      (Helpers.dependent_points 300)
  in
  let workload =
    [
      [| None; Some 0; Some 0 |];
      [| Some 1; None; Some 1 |];
      [| Some 0; Some 0; None |];
      [| None; None; Some 1 |];
    ]
  in
  let _ =
    Mrsl.Workload.run_contained
      ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 40 }
      ~domains:2 ~seed:7 model workload
  in
  (* registry names *)
  let snapshot = T.to_json T.global in
  let section k =
    match T.Json.member k snapshot with
    | Some (T.Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  List.iter
    (fun sec ->
      List.iter (check_documented ("runtime " ^ sec)) (section sec))
    [ "counters"; "gauges"; "histograms"; "spans" ];
  (* trace categories and event names *)
  let json = T.Json.of_string (Tr.chrome_string sink) in
  (match T.Json.member "traceEvents" json with
  | Some (T.Json.List evs) ->
      Alcotest.(check bool) "trace has events" true (List.length evs > 0);
      List.iter
        (fun ev ->
          match T.Json.member "ph" ev with
          | Some (T.Json.String "M") | None -> ()
          | Some _ ->
              (match T.Json.member "cat" ev with
              | Some (T.Json.String c) -> check_documented "runtime cat" c
              | _ -> ());
              (match T.Json.member "name" ev with
              | Some (T.Json.String n) -> check_documented "runtime event" n
              | _ -> ()))
        evs
  | _ -> Alcotest.fail "no traceEvents in export")

let suite =
  [
    ("static catalogue complete", `Quick, test_static_catalogue);
    ("runtime names documented", `Quick, test_runtime_names_documented);
  ]
