(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) at the scale selected by MRSL_SCALE
   (smoke | default | full), runs a Bechamel micro-benchmark per
   artifact measuring its computational kernel, and emits a
   machine-readable BENCH_1.json (micro wall times, work-stealing
   scheduler speedups, memo hit rates, telemetry snapshot) that the CI
   regression gate (ci/bench_gate.exe) consumes.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2 fig11 -- selected artifacts
     dune exec bench/main.exe -- micro        -- micro-benchmarks only

   MRSL_BENCH_OUT overrides the JSON output path (default BENCH_1.json). *)

module Json = Mrsl.Telemetry.Json

let scale = Experiments.Scale.current ()

let seed =
  match Sys.getenv_opt "MRSL_SEED" with
  | Some s -> ( try int_of_string s with Failure _ -> 2011)
  | None -> 2011

let bench_out =
  match Sys.getenv_opt "MRSL_BENCH_OUT" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_1.json"

(* MRSL_TRACE_OUT=trace.json records the whole bench run under a Trace
   sink and writes Chrome trace-event JSON (Perfetto-loadable) on exit;
   the CI trace pass validates the artifact with ci/trace_check.exe. *)
let trace_out =
  match Sys.getenv_opt "MRSL_TRACE_OUT" with
  | Some p when p <> "" -> Some p
  | _ -> None

(* The quality artifact (ci/quality_gate.exe compares it against
   bench/baseline/QUALITY_1.json). MRSL_QUALITY_OUT overrides the path;
   MRSL_QUALITY_INJECT=overconfident (or a float temperature > 1)
   injects a deterministic calibration regression into the shadow-eval
   scoring — the CI negative test — without touching any probability a
   run actually serves. *)
let quality_out =
  match Sys.getenv_opt "MRSL_QUALITY_OUT" with
  | Some p when p <> "" -> p
  | _ -> "QUALITY_1.json"

let quality_inject =
  match Sys.getenv_opt "MRSL_QUALITY_INJECT" with
  | None | Some "" -> None
  | Some "overconfident" -> Some 4.0
  | Some s -> float_of_string_opt s

(* Accumulators for the JSON report, filled as sections run. *)
let micro_rows : (string * float) list ref = ref []
let section_rows : (string * float) list ref = ref []
let parallel_block : Json.t option ref = ref None
let cache_block : Json.t option ref = ref None
let serve_block : Json.t option ref = ref None
let chaos_block : Json.t option ref = ref None
let resources_block : Json.t option ref = ref None
let kernel_block : Json.t option ref = ref None

let section title body = Printf.printf "\n=== %s ===\n%s%!" title body

let timed_section id title f =
  let rng = Prob.Rng.create (seed + Hashtbl.hash id) in
  let t0 = Unix.gettimeofday () in
  let body = f rng in
  section title body;
  let dt = Unix.gettimeofday () -. t0 in
  section_rows := (id, dt) :: !section_rows;
  Printf.printf "[%s completed in %.1fs at scale=%s]\n%!" id dt
    scale.Experiments.Scale.name

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per paper artifact,
   exercising the computational kernel that artifact measures. *)

type fixture = {
  network : Bayesnet.Network.t;
  points : int array array;
  model : Mrsl.Model.t;
  masked_tuples : Relation.Tuple.t array;  (** one missing value each *)
  multi_tuple : Relation.Tuple.t;  (** two missing values *)
  workload : Relation.Tuple.t list;
  cards : int array;
}

let micro_fixture () =
  let rng = Prob.Rng.create seed in
  let entry = Bayesnet.Catalog.find "BN8" in
  let network = Bayesnet.Network.generate rng entry.topology in
  let train = Bayesnet.Network.sample_instance rng network 2000 in
  let points = Relation.Instance.complete_part train in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      train
  in
  let masked_tuples =
    Relation.Instance.tuples
      (Relation.Instance.mask_exact rng ~missing:1
         (Bayesnet.Network.sample_instance rng network 64))
  in
  let multi_tuple =
    let t = Relation.Tuple.of_point (Bayesnet.Network.sample_point rng network) in
    t.(1) <- None;
    t.(3) <- None;
    t
  in
  let workload =
    Array.to_list
      (Relation.Instance.tuples
         (Relation.Instance.mask_uniform rng ~max_missing:3
            (Bayesnet.Network.sample_instance rng network 32)))
  in
  {
    network;
    points;
    model;
    masked_tuples;
    multi_tuple;
    workload;
    cards = Bayesnet.Topology.cardinalities entry.topology;
  }

let infer_batch ?method_ fx () =
  Array.iter
    (fun tup ->
      match Relation.Tuple.missing tup with
      | a :: _ -> ignore (Mrsl.Infer_single.infer ?method_ fx.model tup a)
      | [] -> ())
    fx.masked_tuples

let micro_tests fx =
  let open Bechamel in
  let schema = Mrsl.Model.schema fx.model in
  [
    (* Table I: catalog/topology construction and depth computation. *)
    Test.make ~name:"table1/catalog-depth"
      (Staged.stage (fun () ->
           List.iter
             (fun (e : Bayesnet.Catalog.entry) ->
               ignore (Bayesnet.Topology.depth e.topology))
             Bayesnet.Catalog.all));
    (* Fig 4: Apriori mining and full model learning. *)
    Test.make ~name:"fig4/apriori-mine"
      (Staged.stage (fun () ->
           ignore
             (Mining.Apriori.mine
                ~config:{ threshold = 0.02; max_itemsets = 1000 }
                ~cards:fx.cards fx.points)));
    Test.make ~name:"fig4/model-learn"
      (Staged.stage (fun () ->
           ignore
             (Mrsl.Model.learn_points
                ~params:
                  { Mrsl.Model.default_params with support_threshold = 0.02 }
                schema fx.points)));
    (* Table II / Fig 5: single-attribute inference under two methods. *)
    Test.make ~name:"table2/infer-best-averaged"
      (Staged.stage (infer_batch ~method_:Mrsl.Voting.best_averaged fx));
    Test.make ~name:"fig5/infer-all-weighted"
      (Staged.stage (infer_batch ~method_:Mrsl.Voting.all_weighted fx));
    (* Fig 6: lattice matching, the support-sensitive kernel. *)
    Test.make ~name:"fig6/lattice-matching"
      (Staged.stage (fun () ->
           Array.iter
             (fun tup ->
               match Relation.Tuple.missing tup with
               | a :: _ ->
                   ignore (Mrsl.Lattice.matching (Mrsl.Model.lattice fx.model a) tup)
               | [] -> ())
             fx.masked_tuples));
    (* Fig 8: the exact-posterior reference computation. *)
    Test.make ~name:"fig8/exact-posterior"
      (Staged.stage (fun () ->
           Array.iter
             (fun tup ->
               if not (Relation.Tuple.is_complete tup) then
                 ignore (Bayesnet.Network.posterior_joint fx.network tup))
             fx.masked_tuples));
    (* Fig 9: batched default-method inference. *)
    Test.make ~name:"fig9/inference-batch" (Staged.stage (infer_batch fx));
    (* Fig 10: one Gibbs run over a 2-missing tuple. *)
    Test.make ~name:"fig10/gibbs-run"
      (Staged.stage
         (let sampler = Mrsl.Gibbs.sampler fx.model in
          fun () ->
            ignore
              (Mrsl.Gibbs.run
                 ~config:{ burn_in = 20; samples = 100 }
                 (Prob.Rng.create 7) sampler fx.multi_tuple)));
    (* Fig 11: the two workload strategies. *)
    Test.make ~name:"fig11/workload-tuple-at-a-time"
      (Staged.stage
         (let sampler = Mrsl.Gibbs.sampler fx.model in
          fun () ->
            ignore
              (Mrsl.Workload.run
                 ~config:{ burn_in = 10; samples = 50 }
                 ~strategy:Mrsl.Workload.Tuple_at_a_time (Prob.Rng.create 7)
                 sampler fx.workload)));
    Test.make ~name:"fig11/workload-tuple-dag"
      (Staged.stage
         (let sampler = Mrsl.Gibbs.sampler fx.model in
          fun () ->
            ignore
              (Mrsl.Workload.run
                 ~config:{ burn_in = 10; samples = 50 }
                 ~strategy:Mrsl.Workload.Tuple_dag (Prob.Rng.create 7) sampler
                 fx.workload)));
    (* Ablations: tuple-DAG construction. *)
    Test.make ~name:"ablation/tuple-dag-build"
      (Staged.stage (fun () -> ignore (Mrsl.Tuple_dag.build fx.workload)));
    (* Baselines: BN structure learning and the DN fit. *)
    Test.make ~name:"baselines/bn-structure-fit"
      (Staged.stage (fun () ->
           ignore (Bayesnet.Structure_learn.fit ~cards:fx.cards fx.points)));
    Test.make ~name:"baselines/independent-product"
      (Staged.stage (fun () ->
           ignore
             (Baselines.Independent_product.infer_joint fx.model fx.multi_tuple)));
    (* Missingness: masking pass. *)
    Test.make ~name:"missingness/mcar-mask"
      (Staged.stage
         (let inst =
            Relation.Instance.of_points
              (Mrsl.Model.schema fx.model)
              (Array.to_list fx.points)
          in
          fun () ->
            ignore
              (Relation.Missingness.mask (Prob.Rng.create 3)
                 (Relation.Missingness.Mcar 0.1) inst)));
    (* Query layer: top-k worlds over a derived database. *)
    Test.make ~name:"query/top-k-worlds"
      (Staged.stage
         (let db =
            Probdb.Pdb.derive
              ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
              (Prob.Rng.create 5) fx.model
              (Relation.Instance.make
                 (Mrsl.Model.schema fx.model)
                 (Array.to_list
                    (Array.sub fx.masked_tuples 0 8)))
          in
          fun () -> ignore (Probdb.Pdb.top_k_worlds db 20)));
  ]

(* Fig 11 tuple-DAG workload under the work-stealing scheduler at several
   domain counts, plus the seed's static-partition fork/join as the
   reference it replaced. Emitted into BENCH_1.json: wall time, sweep
   counts, shared-sample counts, memo hit rates, and speedups. *)
let run_parallel_bench fx =
  let samples = 50 and burn_in = 10 in
  let workload = fx.workload in
  let tuples = List.length workload in
  let hit_rate telemetry =
    match Mrsl.Telemetry.histogram telemetry "gibbs.memo_hit_rate" with
    | Some s when s.Mrsl.Telemetry.count > 0 -> s.Mrsl.Telemetry.mean
    | _ -> 0.
  in
  let runs =
    List.map
      (fun domains ->
        let telemetry = Mrsl.Telemetry.create () in
        (* Double-accounting guard: the per-run registry is fresh, but
           the domain pool and the model's conditional tables persist
           across sections. Record both facts: a [pool.reused]
           marker event when warm domains are reused, and whether this
           run's counters really start from zero (the gate fails the run
           otherwise). *)
        let pool_alive = Mrsl.Domain_pool.size (Mrsl.Domain_pool.get ()) in
        if pool_alive > 0 then
          Mrsl.Trace.instant ~cat:"sched"
            ~args:
              [
                ("domains_alive", Mrsl.Trace.Int pool_alive);
                ("run_domains", Mrsl.Trace.Int domains);
              ]
            "pool.reused";
        let counters_start_zero =
          Mrsl.Telemetry.counter telemetry "parallel.steals" = 0
          && Mrsl.Telemetry.counter telemetry "parallel.tasks" = 0
          && Mrsl.Telemetry.counter telemetry "parallel.sweeps" = 0
        in
        let stats =
          Experiments.Framework.parallel_workload_stats ~telemetry ~domains
            ~seed fx.model ~samples ~burn_in workload
        in
        ( domains, stats, hit_rate telemetry,
          Mrsl.Telemetry.counter telemetry "parallel.steals",
          Mrsl.Telemetry.counter telemetry "parallel.tasks",
          counters_start_zero, pool_alive ))
      [ 1; 2; 4 ]
  in
  let wall_of d =
    let _, s, _, _, _, _, _ =
      List.find (fun (d', _, _, _, _, _, _) -> d' = d) runs
    in
    s.Mrsl.Workload.wall_seconds
  in
  (* The seed's static partition at 4 domains, chunks run back-to-back:
     total work, the honest single-core comparison (and an upper bound on
     its multicore wall). *)
  let static =
    Experiments.Framework.static_partition_stats ~domains:4 ~seed fx.model
      ~samples ~burn_in workload
  in
  let speedup denom num = if num > 0. then denom /. num else Float.nan in
  let run_json
      (domains, (s : Mrsl.Workload.stats), rate, steals, tasks, zero, pool) =
    Json.Obj
      [
        ("domains", Json.Int domains);
        ("wall_seconds", Json.Float s.wall_seconds);
        ("sweeps", Json.Int s.sweeps);
        ("recorded", Json.Int s.recorded);
        ("shared", Json.Int s.shared);
        ("memo_hit_rate", Json.Float rate);
        ("steals", Json.Int steals);
        ("tasks", Json.Int tasks);
        ("counters_start_zero", Json.Bool zero);
        ("pool_domains_alive", Json.Int pool);
        ("speedup_vs_domains1", Json.Float (speedup (wall_of 1) s.wall_seconds));
      ]
  in
  let block =
    Json.Obj
      [
        ("workload_tuples", Json.Int tuples);
        ("samples_per_tuple", Json.Int samples);
        ("burn_in", Json.Int burn_in);
        ("runs", Json.List (List.map run_json runs));
        ( "static_partition_domains4",
          Json.Obj
            [
              ("wall_seconds", Json.Float static.wall_seconds);
              ("sweeps", Json.Int static.sweeps);
              ("shared", Json.Int static.shared);
            ] );
        ( "workstealing_domains4_speedup_vs_static",
          Json.Float (speedup static.wall_seconds (wall_of 4)) );
      ]
  in
  parallel_block := Some block;
  let rows =
    List.map
      (fun (domains, (s : Mrsl.Workload.stats), rate, steals, _, _, _) ->
        Experiments.Report.
          [
            S (Printf.sprintf "work-stealing domains:%d" domains);
            F s.wall_seconds; I s.sweeps; I s.shared; P rate; I steals;
          ])
      runs
    @ [
        Experiments.Report.
          [
            S "static partition domains:4 (seed)"; F static.wall_seconds;
            I static.sweeps; I static.shared; P 0.; I 0;
          ];
      ]
  in
  section "parallel"
    (Experiments.Report.render
       ~title:
         (Printf.sprintf
            "Fig 11 workload (%d tuples) under the work-stealing scheduler"
            tuples)
       ~header:[ "configuration"; "wall (s)"; "sweeps"; "shared"; "memo hit"; "steals" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Resource baseline (ROADMAP item 2's measured starting line):
   allocation per kernel run for the three gated micros, GC collection
   counts, peak heap, per-domain utilization from a pooled run, and the
   posterior cache's accounted-vs-reachable byte cross-check. Runs with
   a Resource monitor installed — but outside the Bechamel timing loop,
   so the gated ns/run numbers are unaffected. *)

let run_resources fx =
  let mon = Mrsl.Resource.create () in
  Mrsl.Resource.install mon;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  let reps = 10 in
  let measure name f =
    (* One warm run hoists lattice/sampler setup and memo fills out of
       the measurement, then a major collection settles the heap. *)
    f ();
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to reps do
      f ()
    done;
    let a1 = Gc.allocated_bytes () in
    let s1 = Gc.quick_stat () in
    let alloc = (a1 -. a0) /. float_of_int reps in
    ( name,
      alloc,
      Json.Obj
        [
          ("name", Json.String name);
          ("alloc_bytes_per_run", Json.Float alloc);
          ( "minor_collections_per_run",
            Json.Float
              (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections)
              /. float_of_int reps) );
          ( "major_collections",
            Json.Int (s1.Gc.major_collections - s0.Gc.major_collections) );
        ] )
  in
  let gibbs_kernel =
    let sampler = Mrsl.Gibbs.sampler fx.model in
    fun () ->
      ignore
        (Mrsl.Gibbs.run
           ~config:{ burn_in = 20; samples = 100 }
           (Prob.Rng.create 7) sampler fx.multi_tuple)
  in
  (* Algorithm 3's executor on the fig11 micro workload: flat sample
     bags, in-place Gibbs steps and memo hits that allocate nothing. *)
  let dag_workload =
    let sampler = Mrsl.Gibbs.sampler fx.model in
    fun () ->
      ignore
        (Mrsl.Workload.run
           ~config:{ burn_in = 10; samples = 50 }
           ~strategy:Mrsl.Workload.Tuple_dag (Prob.Rng.create 7) sampler
           fx.workload)
  in
  (* Fig 4's miner on the fixture's rows: the bitsets, the level rows
     and the result table. *)
  let apriori_mine () =
    ignore
      (Mining.Apriori.mine
         ~config:{ threshold = 0.02; max_itemsets = 1000 }
         ~cards:fx.cards fx.points)
  in
  let measured =
    [
      measure "mrsl/fig4/apriori-mine" apriori_mine;
      measure "mrsl/table2/infer-best-averaged"
        (infer_batch ~method_:Mrsl.Voting.best_averaged fx);
      measure "mrsl/fig10/gibbs-run" gibbs_kernel;
      measure "mrsl/fig11/workload-tuple-dag" dag_workload;
    ]
  in
  (* Per-domain utilization from a saturating pooled run. *)
  let _ =
    Mrsl.Parallel.run
      ~config:{ burn_in = 20; samples = 200 }
      ~domains:4 ~seed fx.model fx.workload
  in
  let util = Mrsl.Resource.utilization () in
  (* Cache accounted-vs-reachable cross-check over the micro workload.
     The empty-cache footprint (shard array, empty hashtables, LRU
     sentinels) is measured first and subtracted, so the ratio compares
     the budget's per-entry cost model against what entries actually
     cost on the heap — accounted/growth < 1 means under-counting. *)
  let cache = Mrsl.Posterior_cache.create ~max_bytes:(8 * 1024 * 1024) () in
  let reachable_empty = Mrsl.Posterior_cache.reachable_bytes cache in
  Array.iter
    (fun tup ->
      match Relation.Tuple.missing tup with
      | a :: _ -> ignore (Mrsl.Infer_single.infer ~cache fx.model tup a)
      | [] -> ())
    fx.masked_tuples;
  let cs = Mrsl.Posterior_cache.stats cache in
  let reachable = Mrsl.Posterior_cache.reachable_bytes cache in
  let growth = max 0 (reachable - reachable_empty) in
  let ratio =
    if growth = 0 then 1.
    else float_of_int cs.Mrsl.Posterior_cache.bytes /. float_of_int growth
  in
  (* A forced major + sample guarantees the gc.* counters land in the
     global telemetry snapshot the gate's --require-counter reads. *)
  Gc.full_major ();
  Mrsl.Resource.sample mon;
  let s = Gc.quick_stat () in
  resources_block :=
    Some
      (Json.Obj
         [
           ("rows", Json.List (List.map (fun (_, _, j) -> j) measured));
           ( "gc",
             Json.Obj
               [
                 ("minor_collections", Json.Int s.Gc.minor_collections);
                 ("major_collections", Json.Int s.Gc.major_collections);
                 ("compactions", Json.Int s.Gc.compactions);
                 ("heap_bytes", Json.Int (s.Gc.heap_words * 8));
                 ("top_heap_bytes", Json.Int (s.Gc.top_heap_words * 8));
               ] );
           ( "domains",
             Json.List
               (List.map
                  (fun (d, u) ->
                    Json.Obj
                      [
                        ("domain", Json.Int d); ("utilization", Json.Float u);
                      ])
                  util) );
           ( "cache",
             Json.Obj
               [
                 ("accounted_bytes", Json.Int cs.Mrsl.Posterior_cache.bytes);
                 ("reachable_bytes", Json.Int reachable);
                 ("reachable_growth_bytes", Json.Int growth);
                 ("accounted_per_growth", Json.Float ratio);
               ] );
         ]);
  let body =
    Experiments.Report.render ~title:"Resource baseline (alloc bytes/run)"
      ~header:[ "kernel"; "alloc bytes/run" ]
      (List.map
         (fun (name, alloc, _) -> Experiments.Report.[ S name; F alloc ])
         measured)
    ^ Printf.sprintf
        "peak heap %.1f MiB; cache accounted %d vs reachable growth %d \
         bytes (x%.2f); utilization %s\n"
        (float_of_int (s.Gc.top_heap_words * 8) /. 1048576.)
        cs.Mrsl.Posterior_cache.bytes growth ratio
        (String.concat " "
           (List.map (fun (d, u) -> Printf.sprintf "%d=%.2f" d u) util))
  in
  section "resources" body

(* ------------------------------------------------------------------ *)
(* Compiled-kernel comparison (ROADMAP item 2): the two gated micros
   timed interpreted vs compiled in the same process, with allocation
   per run, plus the bit-identity cross-check the gate requires before
   it will accept any speedup number. Manual timing (not Bechamel):
   each mode needs the global kernel switch held across its whole
   timing loop. *)

let run_kernel () =
  let fx = micro_fixture () in
  let with_kernel b f =
    let prev = Mrsl.Kernel.enabled () in
    Mrsl.Kernel.set_enabled b;
    Fun.protect ~finally:(fun () -> Mrsl.Kernel.set_enabled prev) f
  in
  let time_alloc f =
    (* One warm run hoists kernel compilation and lattice setup out of
       the measurement; rep count adapts so each loop runs ~0.3s. *)
    f ();
    let t0 = Unix.gettimeofday () in
    f ();
    let once = Unix.gettimeofday () -. t0 in
    let reps = max 5 (min 200 (int_of_float (0.3 /. Float.max 1e-6 once))) in
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let a1 = Gc.allocated_bytes () in
    (dt /. float_of_int reps *. 1e9, (a1 -. a0) /. float_of_int reps)
  in
  let gibbs_config = { Mrsl.Gibbs.burn_in = 20; samples = 100 } in
  let gibbs_run () =
    (* A fresh unmemoized sampler per run: every sweep pays the full
       voting cost, which is exactly what the kernel compiles away —
       a shared table would hide both paths behind table reads. *)
    let sampler = Mrsl.Gibbs.sampler ~memoize:false fx.model in
    ignore
      (Mrsl.Gibbs.run ~config:gibbs_config (Prob.Rng.create 7) sampler
         fx.multi_tuple)
  in
  let measure name f =
    let i_ns, i_alloc = with_kernel false (fun () -> time_alloc f) in
    let c_ns, c_alloc = with_kernel true (fun () -> time_alloc f) in
    let speedup = if c_ns > 0. then i_ns /. c_ns else 0. in
    (name, i_ns, c_ns, speedup, i_alloc, c_alloc)
  in
  let rows =
    [
      measure "mrsl/table2/infer-best-averaged"
        (infer_batch ~method_:Mrsl.Voting.best_averaged fx);
      measure "mrsl/fig10/gibbs-run" gibbs_run;
    ]
  in
  (* Bit-identity: every masked tuple under all four methods, and a
     fixed-seed Gibbs joint — compiled must equal interpreted exactly. *)
  let posterior b method_ tup a =
    with_kernel b (fun () ->
        Array.copy
          (Mrsl.Infer_single.infer ~method_ fx.model tup a :> float array))
  in
  let voting_identical =
    Array.for_all
      (fun tup ->
        match Relation.Tuple.missing tup with
        | a :: _ ->
            List.for_all
              (fun m -> posterior false m tup a = posterior true m tup a)
              Mrsl.Voting.all_methods
        | [] -> true)
      fx.masked_tuples
  in
  let gibbs_joint b =
    with_kernel b (fun () ->
        let sampler = Mrsl.Gibbs.sampler ~memoize:false fx.model in
        Array.copy
          ((Mrsl.Gibbs.run ~config:gibbs_config (Prob.Rng.create 7) sampler
              fx.multi_tuple)
             .joint
            :> float array))
  in
  let bit_identical = voting_identical && gibbs_joint false = gibbs_joint true in
  kernel_block :=
    Some
      (Json.Obj
         [
           ( "rows",
             Json.List
               (List.map
                  (fun (name, i_ns, c_ns, speedup, i_alloc, c_alloc) ->
                    Json.Obj
                      [
                        ("name", Json.String name);
                        ("interpreted_ns_per_run", Json.Float i_ns);
                        ("compiled_ns_per_run", Json.Float c_ns);
                        ("speedup", Json.Float speedup);
                        ("interpreted_alloc_bytes_per_run", Json.Float i_alloc);
                        ("compiled_alloc_bytes_per_run", Json.Float c_alloc);
                      ])
                  rows) );
           ("bit_identical", Json.Bool bit_identical);
         ]);
  let body =
    Experiments.Report.render ~title:"Compiled kernels vs interpreted"
      ~header:
        [ "benchmark"; "interp ns"; "compiled ns"; "speedup"; "interp alloc"; "compiled alloc" ]
      (List.map
         (fun (name, i_ns, c_ns, speedup, i_alloc, c_alloc) ->
           Experiments.Report.[ S name; F i_ns; F c_ns; F speedup; F i_alloc; F c_alloc ])
         rows)
    ^ Printf.sprintf "bit_identical: %b\n" bit_identical
  in
  section "kernel" body

let write_bench_json () =
  let number_rows rows key =
    Json.List
      (List.rev_map
         (fun (name, v) ->
           Json.Obj [ ("name", Json.String name); (key, Json.Float v) ])
         rows)
  in
  let fields =
    [
      ("schema_version", Json.Int 1);
      ("scale", Json.String scale.Experiments.Scale.name);
      ("seed", Json.Int seed);
      ("generated_unix", Json.Float (Unix.time ()));
      ("micro", number_rows !micro_rows "ns_per_run");
      ("sections", number_rows !section_rows "wall_seconds");
    ]
    @ (match !parallel_block with
      | Some block -> [ ("parallel", block) ]
      | None -> [])
    @ (match !cache_block with
      | Some block -> [ ("cache", block) ]
      | None -> [])
    @ (match !serve_block with
      | Some block -> [ ("serve", block) ]
      | None -> [])
    @ (match !chaos_block with
      | Some block -> [ ("serve_chaos", block) ]
      | None -> [])
    @ (match !resources_block with
      | Some block -> [ ("resources", block) ]
      | None -> [])
    @ (match !kernel_block with
      | Some block -> [ ("kernel", block) ]
      | None -> [])
    @ [ ("telemetry", Mrsl.Telemetry.to_json Mrsl.Telemetry.global) ]
  in
  let oc = open_out bench_out in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n[wrote %s]\n%!" bench_out

let run_micro () =
  let open Bechamel in
  let fx = micro_fixture () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  (* The Bechamel measurement loop runs each kernel thousands of times;
     tracing it would both distort the gated ns/run numbers and overflow
     the default ring buffers. Suspend the sink for the timing loop only
     — fixture setup and the parallel bench below stay traced. *)
  let raw =
    let sink = Mrsl.Trace.uninstall () in
    Fun.protect ~finally:(fun () -> Option.iter Mrsl.Trace.install sink)
      (fun () ->
        Benchmark.all cfg instances
          (Test.make_grouped ~name:"mrsl" (micro_tests fx)))
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  micro_rows := List.filter (fun (_, ns) -> Float.is_finite ns) rows;
  let body =
    Experiments.Report.render ~title:"Bechamel micro-benchmarks"
      ~header:[ "benchmark"; "ns/run"; "ms/run" ]
      (List.map
         (fun (name, ns) -> Experiments.Report.[ S name; F ns; F (ns /. 1e6) ])
         rows)
  in
  section "micro" body;
  run_parallel_bench fx;
  run_resources fx

(* ------------------------------------------------------------------ *)
(* Fault-containment exercise: drives every degradation path of the
   robustness layer under deterministic injection so the corresponding
   telemetry counters (fault.*, degrade.*, gibbs.retries,
   csv.rows_skipped) land in the BENCH JSON, where the CI fault pass
   asserts their presence. Injection rates come from the MRSL_FAULT_
   environment variables when set, otherwise from a built-in config. *)

let render_faults rng =
  let buf = Buffer.create 512 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let entry = Bayesnet.Catalog.find "BN8" in
  let network = Bayesnet.Network.generate rng entry.topology in
  let train = Bayesnet.Network.sample_instance rng network 400 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      train
  in
  let workload =
    Array.to_list
      (Relation.Instance.tuples
         (Relation.Instance.mask_uniform rng ~max_missing:2
            (Bayesnet.Network.sample_instance rng network 16)))
  in
  let retry_tuple =
    (Relation.Instance.tuples
       (Relation.Instance.mask_exact rng ~missing:1
          (Bayesnet.Network.sample_instance rng network 1))).(0)
  in
  let cfg =
    if Mrsl.Fault_inject.active () then Mrsl.Fault_inject.current ()
    else
      {
        Mrsl.Fault_inject.disabled with
        seed;
        task_failure_rate = 0.25;
        csv_corruption_rate = 0.25;
        nonconvergence_rate = 1.0;
        voter_drop_rate = 1.0;
      }
  in
  let tg = Mrsl.Telemetry.global in
  out "injection: %s" (Mrsl.Fault_inject.describe cfg);
  Mrsl.Fault_inject.with_config cfg (fun () ->
      (* 1. CSV corruption survived by the lenient reader. *)
      let text = Relation.Csv_io.write_string train in
      let corrupted, lines = Mrsl.Fault_inject.corrupt_csv text in
      let inst, errs =
        Relation.Csv_io.read_string_lenient ~file:"<bench>" corrupted
      in
      Mrsl.Telemetry.add tg "fault.injected.csv_rows" (List.length lines);
      Mrsl.Telemetry.add tg "csv.rows_skipped" (List.length errs);
      out "csv: %d rows corrupted; lenient read kept %d tuples, skipped %d"
        (List.length lines) (Relation.Instance.size inst) (List.length errs);
      (* 2. Contained scheduler run at the configured task-failure rate. *)
      let contained =
        Mrsl.Parallel.run_contained
          ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
          ~domains:2 ~policy:Mrsl.Parallel.Skip_and_report ~seed model
          workload
      in
      out "scheduler: %d tuples inferred, %d skipped (%d sweeps)"
        (List.length contained.result.estimates)
        (List.length contained.faults)
        contained.result.stats.sweeps;
      (* 2b. Pinned full-rate containment so fault.task_failures and
         fault.tuples_skipped are non-zero for every seed. *)
      let pinned =
        Mrsl.Fault_inject.with_config
          { cfg with task_failure_rate = 1.0 }
          (fun () ->
            Mrsl.Parallel.run_contained
              ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
              ~domains:2 ~policy:Mrsl.Parallel.Skip_and_report ~seed model
              (match workload with a :: b :: c :: _ -> [ a; b; c ] | w -> w))
      in
      out "scheduler (rate 1.0): %d/3 tuples skipped"
        (List.length pinned.faults);
      (* 3. Forced non-convergence: retries with doubled draws until the
         budget runs out, then a flagged degraded estimate. *)
      let checked =
        Mrsl.Fault_inject.with_config
          { cfg with nonconvergence_rate = 1.0 }
          (fun () ->
            let sampler = Mrsl.Gibbs.sampler model in
            Mrsl.Diagnostics.run_with_retries
              ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
              (Prob.Rng.create seed) sampler retry_tuple)
      in
      out "retries: %d attempts, %d sweeps, converged=%b" checked.attempts
        checked.total_sweeps checked.converged;
      (* 4. The degradation ladder's lower rungs, exercised directly and
         via dropped voter sets. *)
      let card = Relation.Schema.cardinality (Mrsl.Model.schema model) 0 in
      ignore
        (Mrsl.Infer_single.degrade ~card
           (Mrsl.Infer_single.marginal_prior model 0));
      ignore (Mrsl.Infer_single.degrade ~card None);
      (match
         List.find_opt (fun t -> Relation.Tuple.missing t <> []) workload
       with
      | Some t ->
          let a = List.hd (Relation.Tuple.missing t) in
          ignore (Mrsl.Infer_single.infer model t a)
      | None -> ());
      out "ladder: marginal-prior and uniform rungs exercised");
  List.iter
    (fun key ->
      out "counter %-24s %d" key (Mrsl.Telemetry.counter tg key))
    [
      "fault.injected.csv_rows"; "csv.rows_skipped"; "fault.task_failures";
      "fault.tuples_skipped"; "fault.upstream_skipped"; "gibbs.retries";
      "degrade.nonconverged"; "degrade.marginal_prior"; "degrade.uniform";
    ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Quality artifact: the paper's one-shot offline evaluation (Section
   VI) as an always-on monitor. Fixed sizes — independent of MRSL_SCALE
   — so the checked-in baseline QUALITY json is scale-invariant: every
   number in the artifact is a deterministic function of the seed (no
   wall times), which is what lets ci/quality_gate.exe pin
   [scores.cells] exactly and tolerance-band the rest. *)

let render_quality rng =
  let buf = Buffer.create 512 in
  let entry = Bayesnet.Catalog.find "BN8" in
  let network = Bayesnet.Network.generate rng entry.topology in
  let train = Bayesnet.Network.sample_instance rng network 2000 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      train
  in
  (* Shadow-eval fixture: complete tuples whose known cells the monitor
     deterministically masks and re-infers. *)
  let eval =
    Relation.Instance.tuples (Bayesnet.Network.sample_instance rng network 300)
  in
  let workload =
    Array.to_list
      (Relation.Instance.tuples
         (Relation.Instance.mask_uniform rng ~max_missing:2
            (Bayesnet.Network.sample_instance rng network 24)))
  in
  let config =
    match quality_inject with
    | None -> Mrsl.Quality.default_config
    | Some gamma -> { Mrsl.Quality.default_config with sharpen = gamma }
  in
  (match quality_inject with
  | Some gamma ->
      Buffer.add_string buf
        (Printf.sprintf "INJECTED calibration regression: sharpen=%g\n" gamma)
  | None -> ());
  (* A fresh registry scopes the ensemble-health denominators
     (gibbs.chains / gibbs.checked / degrade.nonconverged) to this
     section, keeping the artifact independent of which other bench
     sections ran first. The monitor's quality.* stream still lands in
     the global registry for the BENCH telemetry snapshot. *)
  let registry = Mrsl.Telemetry.create () in
  let monitor = Mrsl.Quality.create ~config () in
  let cells = Mrsl.Quality.shadow_eval monitor model eval in
  Buffer.add_string buf
    (Printf.sprintf "shadow-eval: %d cells scored over %d tuples\n" cells
       (Array.length eval));
  (* Monitored multi-attribute inference feeds the drift aggregate; the
     monitor observes after sampling, so this run is bit-identical to an
     unmonitored one. *)
  ignore
    (Mrsl.Parallel.run
       ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
       ~domains:2 ~telemetry:registry ~quality:monitor ~seed model workload);
  (* Convergence-checked inference: a few checked runs, the first with a
     forced non-convergence so the health share is exercised. *)
  let sampler = Mrsl.Gibbs.sampler model in
  (match workload with
  | first :: rest ->
      Mrsl.Fault_inject.with_config
        {
          Mrsl.Fault_inject.disabled with
          seed;
          nonconvergence_rate = 1.0;
        }
        (fun () ->
          ignore
            (Mrsl.Diagnostics.run_with_retries
               ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
               ~policy:
                 { Mrsl.Diagnostics.default_retry_policy with max_retries = 1 }
               ~telemetry:registry (Prob.Rng.create seed) sampler first));
      List.iteri
        (fun i tup ->
          if i < 3 then
            ignore
              (Mrsl.Diagnostics.run_with_retries
                 ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 50 }
                 ~telemetry:registry
                 (Prob.Rng.create (seed + i + 1))
                 sampler tup))
        rest
  | [] -> ());
  Mrsl.Quality.publish ~registry monitor;
  let oc = open_out quality_out in
  output_string oc (Json.to_string (Mrsl.Quality.to_json ~registry monitor));
  output_char oc '\n';
  close_out oc;
  Buffer.add_string buf (Mrsl.Quality.render ~registry monitor);
  Buffer.add_string buf (Printf.sprintf "\n[wrote %s]\n" quality_out);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Conditional-table artifact: the model epoch's per-attribute
   conditional tables (Kernel), measured on a workload built to have high
   context sharing.

   The schema pairs chain-correlated attributes (the miner turns these
   into meta-rules) with high-cardinality iid noise attributes whose
   pairs with any head fall below the support threshold — so the noise
   never reaches a rule body, is lattice-irrelevant, and distinct tuples
   that differ only in noise share one evidence context. The workload
   is [patterns] evidence patterns x [variants] noise variants: the
   tuple DAG sees distinct incomparable tuples (no sample sharing), but
   the tables collapse their conditional computations.

   Three runs of one Workload.run from identical RNG seeds on a freshly
   learned model: memoize:false (every conditional recomputed), then
   memoized on the cold tables, then memoized again on the tables the
   second run filled. Estimates must be bit-identical across all three;
   walls and table probe counts land in BENCH_1.json. Fixed sizes,
   independent of MRSL_SCALE. *)

let render_cache rng =
  let buf = Buffer.create 512 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let dep = 4 and noise = 2 in
  let dep_card = 3 and noise_card = 16 in
  let arity = dep + noise in
  let schema =
    Relation.Schema.of_cardinalities
      (List.init arity (fun i -> if i < dep then dep_card else noise_card))
  in
  (* a.(0) uniform; a.(i) copies a.(i-1) with probability 0.8; noise iid.
     With threshold 0.03, a (noise=v, head=w) pair has support ~
     1/16 * 1/3 ~ 0.021 < 0.03 and never becomes a rule body, while
     correlated pairs sit near 1/3 * 0.8 ~ 0.27. *)
  let sample_point () =
    let p = Array.make arity 0 in
    p.(0) <- Prob.Rng.int rng dep_card;
    for i = 1 to dep - 1 do
      p.(i) <-
        (if Prob.Rng.float rng < 0.8 then p.(i - 1)
         else Prob.Rng.int rng dep_card)
    done;
    for j = dep to arity - 1 do
      p.(j) <- Prob.Rng.int rng noise_card
    done;
    p
  in
  let train = Array.init 1500 (fun _ -> sample_point ()) in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.03 }
      schema train
  in
  let patterns = 8 and variants = 12 in
  let workload =
    List.concat
      (List.init patterns (fun k ->
           let base = sample_point () in
           List.init variants (fun v ->
               let p = Array.copy base in
               p.(dep) <- ((v * 5) + k) mod noise_card;
               p.(dep + 1) <- ((v * 11) + (3 * k)) mod noise_card;
               let t = Relation.Tuple.of_point p in
               t.(k mod dep) <- None;
               if k land 1 = 1 then t.((k + 1) mod dep) <- None;
               t)))
  in
  let config = { Mrsl.Gibbs.burn_in = 5; samples = 30 } in
  let run_with memoize =
    let sampler = Mrsl.Gibbs.sampler ~memoize model in
    let result =
      Mrsl.Workload.run ~config (Prob.Rng.create (seed + 17)) sampler workload
    in
    (result, Mrsl.Gibbs.cache_stats sampler)
  in
  let off, _ = run_with false in
  let cold, (cold_hits, cold_misses) = run_with true in
  let warm, (warm_hits, warm_misses) = run_with true in
  let identical (a : Mrsl.Workload.result) (b : Mrsl.Workload.result) =
    List.length a.estimates = List.length b.estimates
    && List.for_all2
         (fun (ta, (ea : Mrsl.Gibbs.estimate)) (tb, (eb : Mrsl.Gibbs.estimate)) ->
           ta = tb && (ea.joint :> float array) = (eb.joint :> float array))
         a.estimates b.estimates
  in
  let bit_identical = identical off cold && identical off warm in
  let wall (r : Mrsl.Workload.result) = r.stats.wall_seconds in
  let speedup denom num = if num > 0. then denom /. num else Float.nan in
  let rate hits misses =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  out "workload: %d tuples (%d evidence patterns x %d noise variants)"
    (List.length workload) patterns variants;
  out "memoize off: %.3fs (%d sweeps)" (wall off) off.stats.sweeps;
  out "cold table:  %.3fs  speedup %.2fx  (%d hits / %d misses)" (wall cold)
    (speedup (wall off) (wall cold))
    cold_hits cold_misses;
  out "warm table:  %.3fs  speedup %.2fx  (%d hits / %d misses, hit rate %.3f)"
    (wall warm)
    (speedup (wall off) (wall warm))
    warm_hits warm_misses (rate warm_hits warm_misses);
  out "estimates bit-identical across all three runs: %b" bit_identical;
  if not bit_identical then
    failwith "conditional table changed sampling output (bit-identity broken)";
  cache_block :=
    Some
      (Json.Obj
         [
           ("workload_tuples", Json.Int (List.length workload));
           ("evidence_patterns", Json.Int patterns);
           ("noise_variants", Json.Int variants);
           ("samples_per_tuple", Json.Int config.samples);
           ("burn_in", Json.Int config.burn_in);
           ("off_wall_seconds", Json.Float (wall off));
           ("cold_wall_seconds", Json.Float (wall cold));
           ("warm_wall_seconds", Json.Float (wall warm));
           ("speedup_cold", Json.Float (speedup (wall off) (wall cold)));
           ("speedup_warm", Json.Float (speedup (wall off) (wall warm)));
           ("cold_hits", Json.Int cold_hits);
           ("cold_misses", Json.Int cold_misses);
           ("warm_hits", Json.Int warm_hits);
           ("warm_misses", Json.Int warm_misses);
           ("warm_hit_rate", Json.Float (rate warm_hits warm_misses));
           ("bit_identical", Json.Bool bit_identical);
         ]);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Serving artifact: an in-process [mrsl serve] daemon on a temp Unix
   socket, driven over real sockets by a client on the bench domain.
   Measures the transport + engine round trip the daemon adds on top of
   raw inference: sequential request latency (p50/p99 µs), pipelined
   sustained throughput (req/s), the dedup fan-out of a batch of
   identical concurrent requests, and a hot model swap mid-stream. The
   two named rows land in BENCH_1.json for ci/bench_gate.exe
   (--require-latency p99 ceilings; req/s floors vs the baseline).
   Fixed sizes, independent of MRSL_SCALE; single-missing requests only,
   so every answer is exact (RNG-free) and the numbers measure serving,
   not sampling. *)

let render_serve rng =
  let buf = Buffer.create 512 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let entry = Bayesnet.Catalog.find "BN8" in
  let network = Bayesnet.Network.generate rng entry.topology in
  let train = Bayesnet.Network.sample_instance rng network 1500 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      train
  in
  let model_path = Filename.temp_file "mrsl-bench-model" ".mrsl" in
  Mrsl.Model_io.save model_path model;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrsl-bench-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serving.Protocol.Unix_socket sock in
  (* Global registry on purpose: the serve.* counters land in the BENCH
     telemetry snapshot, where the CI gate can --require-counter them. *)
  let config =
    {
      Serving.Engine.default_config with
      seed;
      gibbs = { Mrsl.Gibbs.burn_in = 10; samples = 50 };
    }
  in
  let engine = Serving.Engine.create ~config ~model_path () in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let server_config =
    { (Serving.Server.default_config endpoint) with tick = 0.01 }
  in
  let server =
    Domain.spawn (fun () ->
        Serving.Server.run ~stop
          ~on_ready:(fun () -> Atomic.set ready true)
          server_config engine)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      Sys.remove model_path)
    (fun () ->
      let client = Serving.Client.connect_retry endpoint in
      Fun.protect
        ~finally:(fun () -> Serving.Client.close client)
        (fun () ->
          let schema = Mrsl.Model.schema model in
          let masked =
            Relation.Instance.tuples
              (Relation.Instance.mask_exact rng ~missing:1
                 (Bayesnet.Network.sample_instance rng network 64))
          in
          let to_labels tup =
            Array.mapi
              (fun a cell ->
                Option.map
                  (fun v ->
                    Relation.Attribute.value_label
                      (Relation.Schema.attribute schema a)
                      v)
                  cell)
              tup
          in
          let requests =
            Array.map
              (fun t -> Serving.Protocol.(req (Infer (to_labels t))))
              masked
          in
          let nth i = requests.(i mod Array.length requests) in
          let expect_ok line =
            if not (String.length line > 7 && String.sub line 0 7 = "{\"ok\":t")
            then failwith (Printf.sprintf "serve bench: error response %s" line)
          in
          (* Warm the cache and the code paths out of the measurement. *)
          for i = 0 to 63 do
            expect_ok (Serving.Client.rpc client (nth i))
          done;
          (* Sequential round-trip latency: one request in flight. *)
          let n_seq = 400 in
          let lat_us = Array.make n_seq 0. in
          let t0 = Mrsl.Clock.now () in
          for i = 0 to n_seq - 1 do
            let s = Mrsl.Clock.now_ns () in
            expect_ok (Serving.Client.rpc client (nth i));
            lat_us.(i) <-
              float_of_int
                (Mrsl.Clock.duration_ns ~start:s ~stop:(Mrsl.Clock.now_ns ()))
              /. 1e3
          done;
          let seq_wall = Mrsl.Clock.now () -. t0 in
          Array.sort compare lat_us;
          let pct p =
            lat_us.(min (n_seq - 1) (int_of_float (p *. float_of_int n_seq)))
          in
          let seq_p50 = pct 0.50 and seq_p99 = pct 0.99 in
          let seq_rps = float_of_int n_seq /. seq_wall in
          (* Pipelined sustained throughput: windows of concurrent
             requests, each window drained as server batches. *)
          let windows = 8 and window = 64 in
          let n_pipe = windows * window in
          let t0 = Mrsl.Clock.now () in
          for w = 0 to windows - 1 do
            for i = 0 to window - 1 do
              Serving.Client.send client (nth ((w * window) + i))
            done;
            for _ = 1 to window do
              expect_ok (Serving.Client.recv client)
            done
          done;
          let pipe_wall = Mrsl.Clock.now () -. t0 in
          let pipe_rps = float_of_int n_pipe /. pipe_wall in
          (* Dedup fan-out: a burst of identical requests must collapse
             to (at most) one posterior computation per batch segment. *)
          let fanout_before =
            (Mrsl.Posterior_cache.stats (Serving.Engine.cache engine))
              .dedup_fanout
          in
          for _ = 1 to window do
            Serving.Client.send client (nth 0)
          done;
          for _ = 1 to window do
            expect_ok (Serving.Client.recv client)
          done;
          let fanout =
            (Mrsl.Posterior_cache.stats (Serving.Engine.cache engine))
              .dedup_fanout - fanout_before
          in
          (* Hot swap mid-stream: requests pipelined around a reload all
             get answered; the epoch advances. *)
          let epoch_before = Serving.Engine.epoch engine in
          for i = 0 to 7 do
            Serving.Client.send client (nth i)
          done;
          Serving.Client.send client Serving.Protocol.(req (Reload None));
          for i = 8 to 15 do
            Serving.Client.send client (nth i)
          done;
          for _ = 1 to 17 do
            expect_ok (Serving.Client.recv client)
          done;
          let epoch_after = Serving.Engine.epoch engine in
          if epoch_after = epoch_before then
            failwith "serve bench: reload did not advance the model epoch";
          out "sequential: %d reqs in %.3fs = %.0f req/s  p50 %.0fus  p99 %.0fus"
            n_seq seq_wall seq_rps seq_p50 seq_p99;
          out "pipelined:  %d reqs in %.3fs = %.0f req/s (windows of %d)"
            n_pipe pipe_wall pipe_rps window;
          out "dedup: %d identical concurrent requests -> fanout %d" window
            fanout;
          out "hot swap: epoch %d -> %d with 16 requests in flight, none dropped"
            epoch_before epoch_after;
          let row name requests wall rps p50 p99 =
            Json.Obj
              [
                ("name", Json.String name);
                ("requests", Json.Int requests);
                ("wall_seconds", Json.Float wall);
                ("req_per_s", Json.Float rps);
                ("p50_us", Json.Float p50);
                ("p99_us", Json.Float p99);
              ]
          in
          (* Server-side per-phase decomposition of the same traffic:
             the daemon runs in-process on the global registry, so its
             queue-wait / compute / flush-wait histograms are readable
             right here. Emitted into the artifact for the CI histogram
             gate (--require-histogram / --histogram-p99). *)
          let phase key name =
            match Mrsl.Telemetry.histogram Mrsl.Telemetry.global name with
            | None -> (key, Json.Obj [ ("count", Json.Int 0) ])
            | Some (s : Mrsl.Telemetry.summary) ->
                ( key,
                  Json.Obj
                    [
                      ("count", Json.Int s.count);
                      ("p50_ms", Json.Float (s.p50 *. 1000.));
                      ("p99_ms", Json.Float (s.p99 *. 1000.));
                      ("max_ms", Json.Float (s.max *. 1000.));
                    ] )
          in
          let phase_p99 name =
            match Mrsl.Telemetry.histogram Mrsl.Telemetry.global name with
            | None -> 0.
            | Some s -> s.Mrsl.Telemetry.p99 *. 1000.
          in
          out
            "phases (server-side p99): queue %.2fms  compute %.2fms  flush \
             %.2fms  total %.2fms"
            (phase_p99 "serve.queue_wait_seconds")
            (phase_p99 "serve.compute_seconds")
            (phase_p99 "serve.flush_wait_seconds")
            (phase_p99 "serve.latency_seconds");
          serve_block :=
            Some
              (Json.Obj
                 [
                   ( "rows",
                     Json.List
                       [
                         row "sequential" n_seq seq_wall seq_rps seq_p50
                           seq_p99;
                         (* Pipelined latency is a window property, not a
                            per-request one; only its throughput is
                            meaningful (and gated). *)
                         row "pipelined" n_pipe pipe_wall pipe_rps 0. 0.;
                       ] );
                   ( "phases",
                     Json.Obj
                       [
                         phase "queue_wait" "serve.queue_wait_seconds";
                         phase "compute" "serve.compute_seconds";
                         phase "flush_wait" "serve.flush_wait_seconds";
                         phase "total" "serve.latency_seconds";
                       ] );
                   ("dedup_burst", Json.Int window);
                   ("dedup_fanout", Json.Int fanout);
                   ("epoch_before", Json.Int epoch_before);
                   ("epoch_after", Json.Int epoch_after);
                 ])));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Serving chaos harness: the same in-process daemon pattern as the
   serve artifact, but configured hostile-small (tiny queue, connection
   cap, aggressive idle reaper, low output ceiling) and then attacked:
   an accept storm past the cap, a slow-loris half frame, a peer that
   stops reading under injected write stalls, a zero-budget deadline,
   an overload burst deep enough to trip the cache-only rung, and a
   torn-frame + connection-drop injection run driven through the
   retrying client — whose surviving answers must stay bit-identical
   to a local reference engine. The daemon must stay live through all
   of it. Counters land in the global registry, where the CI chaos
   pass --require-counter's every defense. *)

let render_chaos rng =
  let buf = Buffer.create 512 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let entry = Bayesnet.Catalog.find "BN8" in
  let network = Bayesnet.Network.generate rng entry.topology in
  let train = Bayesnet.Network.sample_instance rng network 800 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      train
  in
  let model_path = Filename.temp_file "mrsl-chaos-model" ".mrsl" in
  Mrsl.Model_io.save model_path model;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrsl-chaos-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serving.Protocol.Unix_socket sock in
  let config =
    {
      Serving.Engine.default_config with
      seed;
      gibbs = { Mrsl.Gibbs.burn_in = 10; samples = 50 };
    }
  in
  (* Global registry on purpose, like render_serve: the serve.* and
     fault.injected.* counters must land in the BENCH telemetry
     snapshot for the chaos gate. *)
  let engine = Serving.Engine.create ~config ~model_path () in
  (* The uninjected reference for survivor bit-identity, on a private
     registry so its traffic never pollutes the gated counters. *)
  let local =
    Serving.Engine.create
      ~telemetry:(Mrsl.Telemetry.create ())
      ~config ~model_path ()
  in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let server_config =
    {
      (Serving.Server.default_config endpoint) with
      tick = 0.005;
      batch_max = 8;
      queue_capacity = 64;
      max_conns = 4;
      idle_timeout = 0.3;
      out_buf_max = 2048;
      shed_watermark = 0.75;
    }
  in
  let server =
    Domain.spawn (fun () ->
        Serving.Server.run ~stop
          ~on_ready:(fun () -> Atomic.set ready true)
          server_config engine)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      Sys.remove model_path)
    (fun () ->
      let schema = Mrsl.Model.schema model in
      let masked =
        Relation.Instance.tuples
          (Relation.Instance.mask_exact rng ~missing:1
             (Bayesnet.Network.sample_instance rng network 64))
      in
      let to_labels tup =
        Array.mapi
          (fun a cell ->
            Option.map
              (fun v ->
                Relation.Attribute.value_label
                  (Relation.Schema.attribute schema a)
                  v)
              cell)
          tup
      in
      let infer_op i =
        Serving.Protocol.Infer (to_labels masked.(i mod Array.length masked))
      in
      let error_code line =
        match Json.of_string line with
        | j -> (
            match Json.member "error" j with
            | Some e -> (
                match Json.member "code" e with
                | Some (Json.String c) -> Some c
                | _ -> None)
            | None -> None)
        | exception Json.Parse_error _ -> None
      in
      (* Epoch-stripped payload, as `mrsl client verify` compares:
         model epochs are process-unique by construction. *)
      let payload line =
        match Json.of_string line with
        | Json.Obj fields ->
            Json.to_string ~pretty:false
              (Json.Obj (List.filter (fun (k, _) -> k <> "epoch") fields))
        | j -> Json.to_string ~pretty:false j
        | exception Json.Parse_error _ -> line
      in
      (* A connection both admitted and alive: the accept storm and the
         reaper phases leave corpses the server only collects on its
         next tick, so a bare connect may be rejected off the cap. *)
      let rec fresh_conn ?(tries = 100) () =
        let c = Serving.Client.connect ~timeout:5. endpoint in
        match Serving.Client.rpc c Serving.Protocol.(req Ping) with
        | line when error_code line = None -> c
        | _ | (exception End_of_file) | (exception Unix.Unix_error _) ->
            Serving.Client.close c;
            if tries = 0 then failwith "chaos: no live connection obtainable";
            Unix.sleepf 0.02;
            fresh_conn ~tries:(tries - 1) ()
      in
      (* Phase 1 — accept storm: 12 connects against max_conns = 4. The
         overflow must be rejected with one structured line each; the
         admitted-but-silent rest must be reaped by the idle killer. *)
      let storm = 12 in
      let conns =
        List.init storm (fun _ -> Serving.Client.connect ~timeout:3. endpoint)
      in
      let rejected = ref 0 and reaped = ref 0 in
      List.iter
        (fun c ->
          (match Serving.Client.recv c with
          | line ->
              if error_code line = Some "serve.conn_rejected" then
                incr rejected
          | exception End_of_file -> incr reaped
          | exception Serving.Client.Timeout -> ());
          Serving.Client.close c)
        conns;
      if !rejected = 0 then failwith "chaos: accept storm never rejected";
      if !reaped = 0 then failwith "chaos: idle reaper never fired";
      out "accept storm: %d conns -> %d rejected at the cap, %d idle-reaped"
        storm !rejected !reaped;
      (* Phase 2 — slow-loris: half a frame, then silence. The reaper
         must kill it (completed frames, not bytes, reset the clock). *)
      let sl = Serving.Client.connect ~timeout:3. endpoint in
      Serving.Client.send_partial sl "{\"op\":\"pi";
      (match Serving.Client.recv sl with
      | _ -> failwith "chaos: slow-loris got a response to half a frame"
      | exception End_of_file -> ()
      | exception Serving.Client.Timeout ->
          failwith "chaos: slow-loris connection was never killed");
      Serving.Client.close sl;
      out "slow-loris: half-frame connection killed by the idle reaper";
      (* Phase 3 — stalled writes: every flush moves one byte while the
         victim pipelines pings it never reads; the server must cut the
         connection at the output ceiling, not buffer without bound. *)
      let victim = fresh_conn () in
      Mrsl.Fault_inject.with_config
        { Mrsl.Fault_inject.disabled with seed; stall_write_rate = 1.0 }
        (fun () ->
          (* The cut can land mid-loop: once the server's RST arrives, a
             further pipelined send raises EPIPE — that, like recv's
             End_of_file/ECONNRESET, IS the ceiling firing. *)
          match
            for _ = 1 to 200 do
              Serving.Client.send victim Serving.Protocol.(req Ping)
            done
          with
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
              ()
          | () -> (
              match Serving.Client.recv victim with
              | _ ->
                  failwith
                    "chaos: victim outran a fully stalled write — impossible"
              | exception End_of_file -> ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
              | exception Serving.Client.Timeout ->
                  failwith "chaos: out-buffer ceiling never cut the victim"));
      Serving.Client.close victim;
      out "stalled writes: non-reading peer cut at the %d-byte ceiling"
        server_config.Serving.Server.out_buf_max;
      (* Phase 4 — zero budget: a deadline_ms=0 request must be shed
         with the structured deadline error, never computed. *)
      let c = fresh_conn () in
      let line =
        Serving.Client.rpc c
          (Serving.Protocol.req ~deadline_ms:0 (infer_op 0))
      in
      if error_code line <> Some "serve.deadline_exceeded" then
        failwith
          (Printf.sprintf "chaos: zero deadline answered %s" line);
      out "deadline: zero-budget request shed with serve.deadline_exceeded";
      (* Phase 5 — overload burst: 96 pipelined cold requests against a
         64-deep queue. The tail must be refused (serve.overloaded),
         the above-watermark batches must shed (serve.shed), and every
         shed request must succeed on sequential retry. *)
      let burst = 96 in
      let responses = Hashtbl.create burst in
      for i = 0 to burst - 1 do
        Serving.Client.send c
          (Serving.Protocol.req ~id:(Json.Int i) (infer_op i))
      done;
      for _ = 1 to burst do
        let line = Serving.Client.recv c in
        match Json.member "id" (Json.of_string line) with
        | Some (Json.Int i) -> Hashtbl.replace responses i line
        | _ -> failwith "chaos: burst response without an id"
      done;
      let shed_count = ref 0 and ok_count = ref 0 and recovered = ref 0 in
      for i = 0 to burst - 1 do
        let line = Hashtbl.find responses i in
        match error_code line with
        | None -> incr ok_count
        | Some ("serve.shed" | "serve.overloaded") -> incr shed_count
        | Some other ->
            failwith (Printf.sprintf "chaos: unexpected burst error %s" other)
      done;
      if !shed_count = 0 then
        failwith "chaos: overload burst never tripped the shedding ladder";
      for i = 0 to burst - 1 do
        if error_code (Hashtbl.find responses i) <> None then begin
          let line =
            Serving.Client.rpc c
              (Serving.Protocol.req ~id:(Json.Int i) (infer_op i))
          in
          if error_code line <> None then
            failwith
              (Printf.sprintf "chaos: retry after shed still failing: %s" line)
          else incr recovered
        end
      done;
      Serving.Client.close c;
      out
        "overload: burst of %d -> %d answered, %d shed/refused, all %d \
         recovered on retry"
        burst !ok_count !shed_count !recovered;
      (* Phase 6 — torn frames + connection drops, retried by the
         idempotent client; every survivor must be bit-identical to the
         uninjected local reference. *)
      let c = fresh_conn () in
      let survivors = ref 0 and mismatches = ref 0 and lost = ref 0 in
      Mrsl.Fault_inject.with_config
        {
          Mrsl.Fault_inject.disabled with
          seed;
          torn_frame_rate = 0.2;
          conn_drop_rate = 0.2;
        }
        (fun () ->
          for i = 0 to 31 do
            let req =
              Serving.Protocol.req ~id:(Json.Int (1000 + i)) (infer_op i)
            in
            match
              Serving.Client.rpc_retry ~attempts:8 ~delay:0.02 ~seed c req
            with
            | line ->
                incr survivors;
                let reference = Serving.Engine.handle_request local req in
                if payload line <> payload (String.trim reference) then begin
                  incr mismatches;
                  out "MISMATCH\n  served: %s\n  local:  %s" line
                    (String.trim reference)
                end
            | exception (End_of_file | Serving.Client.Timeout | Unix.Unix_error _)
              ->
                incr lost
          done);
      Serving.Client.close c;
      if !survivors = 0 then
        failwith "chaos: no request survived torn-frame/drop injection";
      if !mismatches > 0 then
        failwith
          (Printf.sprintf "chaos: %d survivor(s) not bit-identical"
             !mismatches);
      out
        "injection: %d/32 survived torn frames + conn drops (%d exhausted \
         retries), all bit-identical to local inference"
        !survivors !lost;
      (* Finale — the daemon took all of it and still answers. *)
      let c = fresh_conn () in
      let line = Serving.Client.rpc c Serving.Protocol.(req Ping) in
      if error_code line <> None then
        failwith (Printf.sprintf "chaos: daemon unhealthy at the end: %s" line);
      Serving.Client.close c;
      out "alive: daemon healthy after the full chaos run";
      chaos_block :=
        Some
          (Json.Obj
             [
               ("storm_conns", Json.Int storm);
               ("rejected", Json.Int !rejected);
               ("idle_reaped", Json.Int !reaped);
               ("burst", Json.Int burst);
               ("burst_ok", Json.Int !ok_count);
               ("burst_shed", Json.Int !shed_count);
               ("burst_recovered", Json.Int !recovered);
               ("injected_survivors", Json.Int !survivors);
               ("injected_lost", Json.Int !lost);
               ("injected_mismatches", Json.Int !mismatches);
               ("bit_identical", Json.Bool (!mismatches = 0));
               ("alive", Json.Bool true);
             ]));
  Buffer.contents buf

let artifacts =
  [
    ( "table1",
      "Table I: benchmark network characteristics",
      fun _rng -> Experiments.Table1.render () );
    ( "fig4",
      "Fig 4: learning the MRSL model",
      fun rng -> Experiments.Fig4.render rng scale );
    ( "table2",
      "Table II: accuracy of single-variable inference",
      fun rng -> Experiments.Table2.render rng scale );
    ( "fig5",
      "Fig 5: accuracy vs training set size",
      fun rng -> Experiments.Fig5.render rng scale );
    ( "fig6",
      "Fig 6: accuracy vs support threshold",
      fun rng -> Experiments.Fig6.render rng scale );
    ( "fig8",
      "Fig 8: accuracy vs network properties",
      fun rng -> Experiments.Fig8.render rng scale );
    ( "fig9",
      "Fig 9: inference time vs model size",
      fun rng -> Experiments.Fig9.render rng scale );
    ( "fig10",
      "Fig 10: accuracy of multi-variable inference",
      fun rng -> Experiments.Fig10.render rng scale );
    ( "fig11",
      "Fig 11: efficiency of multi-variable inference",
      fun rng -> Experiments.Fig11.render rng scale );
    ( "missingness",
      "Missingness mechanisms: MCAR / MAR / MNAR robustness",
      fun rng -> Experiments.Missingness_exp.render rng scale );
    ( "baselines",
      "Baselines: MRSL vs independent product, learned BN, backoff DN",
      fun rng -> Experiments.Baselines_exp.render rng scale );
    ( "ablations",
      "Ablations: maxItemsets, smoothing floor, Gibbs strategy, memoization",
      fun rng -> Experiments.Ablations.render rng scale );
    ( "faults",
      "Fault containment: injection, degradation ladder, retries",
      render_faults );
    ( "quality",
      "Quality: shadow-mask calibration, drift, ensemble health",
      render_quality );
    ( "cache",
      "Conditional tables: memoize off vs cold vs warm, hit counts, speedup",
      render_cache );
    ( "serve",
      "Serving daemon: request latency, throughput, dedup, hot swap",
      render_serve );
    ( "chaos",
      "Serving chaos: overload shedding, deadlines, reaping, injection",
      render_chaos );
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map (fun (id, _, _) -> id) artifacts @ [ "micro"; "kernel" ]
  in
  if Mrsl.Fault_inject.install_from_env () then
    Printf.printf "fault injection active: %s\n%!"
      (Mrsl.Fault_inject.describe (Mrsl.Fault_inject.current ()));
  Printf.printf "MRSL reproduction benches (scale=%s, seed=%d)\n%!"
    scale.Experiments.Scale.name seed;
  let sink =
    match trace_out with
    | None -> None
    | Some _ ->
        let s = Mrsl.Trace.create () in
        Mrsl.Trace.install s;
        Some s
  in
  List.iter
    (fun id ->
      if id = "micro" then run_micro ()
      else if id = "kernel" then run_kernel ()
      else
        match List.find_opt (fun (i, _, _) -> i = id) artifacts with
        | Some (id, title, f) -> timed_section id title f
        | None ->
            Printf.eprintf "unknown artifact %S (known: %s, micro, kernel)\n%!"
              id
              (String.concat ", " (List.map (fun (i, _, _) -> i) artifacts)))
    requested;
  (match (sink, trace_out) with
  | Some sink, Some path ->
      ignore (Mrsl.Trace.uninstall ());
      Mrsl.Trace.write_chrome sink path;
      Printf.printf "[trace: %d events (%d dropped) -> %s]\n%!"
        (Mrsl.Trace.event_count sink)
        (Mrsl.Trace.dropped sink) path
  | _ -> ());
  write_bench_json ()
