(* Resource-observability tests (resource-observability PR).

   The layer's contract mirrors Trace/Quality: pure observation. The
   suite asserts the observation-only guarantee end to end (monitored
   parallel runs bit-identical to unmonitored), the physical sanity of
   the derived numbers (per-domain utilization bounded by 1), that a
   sample actually publishes the gc.*/mem.* names, that the inference
   hooks populate the allocation histograms only when a monitor is on,
   and — the accounting satellite — that the conditional tables'
   budgeted bytes stay at or above the Obj.reachable_words ground
   truth. *)

module T = Mrsl.Telemetry

let model () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    Helpers.dependent_schema
    (Helpers.dependent_points 400)

let workload =
  [
    [| None; Some 0; Some 0 |];
    [| Some 1; None; Some 1 |];
    [| Some 0; Some 0; None |];
    [| None; None; Some 1 |];
    [| Some 1; Some 1; None |];
    [| None; Some 1; None |];
  ]

let run_parallel ?telemetry () =
  let m = model () in
  let telemetry = Option.value telemetry ~default:(T.create ()) in
  (Mrsl.Workload.run_contained
     ~config:{ Mrsl.Gibbs.burn_in = 15; samples = 60 }
     ~telemetry ~domains:2 ~seed:11 m workload)
    .result

let joints (r : Mrsl.Workload.result) =
  List.map
    (fun ((_, e) : _ * Mrsl.Gibbs.estimate) ->
      Array.copy (Prob.Dist.to_array e.joint))
    r.estimates

(* Observation-only: a monitored run's posteriors are bit-identical to
   an unmonitored run's — float-exact, not approximately. *)
let test_monitored_bit_identical () =
  let plain = joints (run_parallel ()) in
  let monitored =
    Mrsl.Resource.monitored (fun () -> joints (run_parallel ()))
  in
  Alcotest.(check int)
    "same estimate count" (List.length plain) (List.length monitored);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "joint arrays bit-identical" true (a = b))
    plain monitored

(* Per-domain utilization: busy time is a subset of each worker's wall,
   so every slot must land in [0, 1] — on a workload that keeps both
   workers busy, and strictly positive for at least one slot. *)
let test_utilization_bounded () =
  let _ = run_parallel () in
  let util = Mrsl.Resource.utilization () in
  Alcotest.(check bool) "snapshot non-empty" true (util <> []);
  List.iter
    (fun (d, u) ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d utilization %f in [0,1]" d u)
        true
        (u >= 0. && u <= 1.))
    util;
  Alcotest.(check bool)
    "some worker was busy" true
    (List.exists (fun (_, u) -> u > 0.) util)

(* A sample publishes the gc.*/mem.* names into the monitor's registry
   (deltas for counters, levels for gauges). *)
let test_sample_publishes () =
  let reg = T.create () in
  let mon = Mrsl.Resource.create ~telemetry:reg () in
  Mrsl.Resource.install mon;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  (* Allocate enough to force collections, then a full major. *)
  let keep = ref [] in
  for i = 1 to 200 do
    keep := Array.make 4096 i :: !keep
  done;
  Gc.full_major ();
  Mrsl.Resource.sample mon;
  ignore (Sys.opaque_identity !keep);
  Alcotest.(check bool)
    "gc.major_collections positive" true
    (T.counter reg "gc.major_collections" > 0);
  Alcotest.(check bool)
    "mem.allocated_bytes positive" true
    (T.counter reg "mem.allocated_bytes" > 0);
  (match T.gauge_value reg "mem.heap_bytes" with
  | Some v -> Alcotest.(check bool) "heap gauge positive" true (v > 0.)
  | None -> Alcotest.fail "mem.heap_bytes gauge missing");
  match T.gauge_value reg "mem.top_heap_bytes" with
  | Some v -> Alcotest.(check bool) "peak heap gauge positive" true (v > 0.)
  | None -> Alcotest.fail "mem.top_heap_bytes gauge missing"

(* The inference hooks record allocation histograms only while a monitor
   is installed — and the observations are strictly positive (inference
   allocates; that is exactly what ROADMAP item 2 wants to shrink). *)
let test_alloc_histograms () =
  let m = model () in
  let tup = [| None; Some 0; Some 0 |] in
  let off = T.create () in
  let reg = T.create () in
  ignore (Mrsl.Infer_single.infer ~telemetry:off m tup 0);
  Alcotest.(check bool)
    "no histogram while disabled" true
    (T.histogram off "mem.alloc_per_infer_bytes" = None);
  let mon = Mrsl.Resource.create ~telemetry:reg () in
  Mrsl.Resource.install mon;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  ignore (Mrsl.Infer_single.infer ~telemetry:reg m tup 0);
  let sampler = Mrsl.Gibbs.sampler m in
  ignore
    (Mrsl.Gibbs.chain ~telemetry:reg (Prob.Rng.create 3) sampler
       [| None; None; Some 1 |]);
  (match T.histogram reg "mem.alloc_per_infer_bytes" with
  | Some (s : T.summary) ->
      Alcotest.(check bool) "infer alloc observed" true (s.count > 0);
      Alcotest.(check bool) "infer alloc positive" true (s.max > 0.)
  | None -> Alcotest.fail "mem.alloc_per_infer_bytes missing while enabled");
  match T.histogram reg "mem.alloc_per_chain_bytes" with
  | Some (s : T.summary) ->
      Alcotest.(check bool) "chain alloc observed" true (s.count > 0);
      Alcotest.(check bool) "chain alloc positive" true (s.max > 0.)
  | None -> Alcotest.fail "mem.alloc_per_chain_bytes missing while enabled"

(* Accounting satellite: the conditional tables' accounted bytes must
   upper-bound the measured heap growth of their hashed tables. The
   empty tables' footprint is subtracted so the bound is on what entries
   actually cost. BN7's wide lattices give hashed (> 2^16 contexts)
   tables. *)
let test_cache_accounting_bound () =
  let entry = Bayesnet.Catalog.find "BN7" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let m =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      (Bayesnet.Network.sample_instance r net 2000)
  in
  let epoch = Mrsl.Model.epoch m in
  ignore (Mrsl.Kernel.ensure m : Mrsl.Kernel.t);
  let empty_reachable = Mrsl.Kernel.reachable_bytes epoch in
  Alcotest.(check bool) "empty footprint measured" true (empty_reachable > 0);
  let cache = Mrsl.Posterior_cache.create ~telemetry:(T.create ()) () in
  let arity = Relation.Schema.arity (Mrsl.Model.schema m) in
  for i = 0 to 299 do
    let tup = Relation.Tuple.of_point (Bayesnet.Network.sample_point r net) in
    let a = i mod arity in
    tup.(a) <- None;
    ignore (Mrsl.Infer_single.infer ~cache m tup a)
  done;
  let st = Mrsl.Posterior_cache.stats cache in
  let full_reachable = Mrsl.Kernel.reachable_bytes epoch in
  Alcotest.(check bool) "hashed entries accounted" true (st.bytes > 0);
  let grown = full_reachable - empty_reachable in
  Alcotest.(check bool)
    (Printf.sprintf "accounted %d >= reachable growth %d (%d entries)"
       st.bytes grown st.entries)
    true (st.bytes >= grown)

(* The serving stats op carries the resources block. *)
let test_engine_stats_resources () =
  let m = model () in
  let engine =
    Serving.Engine.of_model ~telemetry:(T.create ())
      ~config:Serving.Engine.default_config m
  in
  let line =
    Serving.Engine.handle_request engine
      (Serving.Protocol.req Serving.Protocol.Stats)
  in
  let json = T.Json.of_string line in
  match T.Json.member "resources" json with
  | Some res -> (
      (match T.Json.member "gc" res with
      | Some _ -> ()
      | None -> Alcotest.fail "resources.gc missing");
      (match T.Json.member "mem" res with
      | Some _ -> ()
      | None -> Alcotest.fail "resources.mem missing");
      match T.Json.member "cache" res with
      | Some c -> (
          match T.Json.member "reachable_bytes" c with
          | Some _ -> ()
          | None -> Alcotest.fail "resources.cache.reachable_bytes missing")
      | None -> Alcotest.fail "resources.cache missing")
  | None -> Alcotest.fail "stats line has no resources block"

(* Back-to-back samples — `mrsl resources` then a serve stats op, or two
   stats ops in a row — must not double-count: the first sample consumes
   the delta, so an immediate second publishes (almost) nothing beyond
   the sampling machinery's own allocations, and counters stay monotone
   (the clamp forbids negative deltas). *)
let test_back_to_back_samples () =
  let reg = T.create () in
  let mon = Mrsl.Resource.create ~telemetry:reg () in
  Mrsl.Resource.install mon;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  (* ~8 MiB of allocation for the first sample to pick up *)
  let keep = ref [] in
  for i = 1 to 256 do
    keep := Array.make 4096 (float_of_int i) :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  Mrsl.Resource.sample mon;
  let a1 = T.counter reg "mem.allocated_bytes" in
  let g1 = T.counter reg "gc.minor_collections" in
  Alcotest.(check bool) "first sample saw the allocation" true
    (a1 > 4_000_000);
  Mrsl.Resource.sample mon;
  let a2 = T.counter reg "mem.allocated_bytes" in
  let g2 = T.counter reg "gc.minor_collections" in
  Alcotest.(check bool) "counters monotone" true (a2 >= a1 && g2 >= g1);
  Alcotest.(check bool)
    (Printf.sprintf "no double count (second delta %d bytes)" (a2 - a1))
    true
    (a2 - a1 < 1_000_000)

(* [monitored] must restore — not drop — a monitor that was installed
   around it, and re-baseline it on the way back in so the scoped
   window's activity is never published twice. *)
let test_monitored_restores_outer () =
  let outer_reg = T.create () in
  let outer = Mrsl.Resource.create ~telemetry:outer_reg () in
  Mrsl.Resource.install outer;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  Mrsl.Resource.sample outer;
  let before = T.counter outer_reg "mem.allocated_bytes" in
  Mrsl.Resource.monitored (fun () ->
      (* ~8 MiB inside the scoped window: published by the scoped
         monitor's final sample, not the outer one *)
      let keep = ref [] in
      for i = 1 to 256 do
        keep := Array.make 4096 (float_of_int i) :: !keep
      done;
      ignore (Sys.opaque_identity !keep));
  (match Mrsl.Resource.installed () with
  | Some m when m == outer -> ()
  | Some _ -> Alcotest.fail "a different monitor is installed"
  | None -> Alcotest.fail "outer monitor was dropped");
  Mrsl.Resource.sample outer;
  let after = T.counter outer_reg "mem.allocated_bytes" in
  Alcotest.(check bool)
    (Printf.sprintf "outer monitor re-baselined (saw %d bytes)"
       (after - before))
    true
    (after - before < 1_000_000)

(* The Prometheus exposition carries the labeled per-domain utilization
   family once a pooled run has recorded a snapshot. *)
let test_exposition_utilization () =
  let reg = T.create () in
  let _ = run_parallel ~telemetry:reg () in
  let text = Mrsl.Trace.prometheus_exposition reg in
  Alcotest.(check bool)
    "mrsl_domain_utilization present" true
    (Astring_like.contains text "mrsl_domain_utilization{domain=\"0\"}")

(* Exact allocation read: [Gc.allocated_bytes] reads an eighth of the
   minor heap's allocation between minor collections on OCaml 5.1, so
   these readings are the allocations' true sizes. A 1 000-cell list is
   1 000 three-word cons cells; a 100 000-int array is one header word
   plus its fields, allocated directly in the major heap. *)
let within ~slack expected got =
  Float.abs (got -. expected) <= slack

let list_1000 () = ignore (Sys.opaque_identity (List.init 1000 Fun.id))

let test_alloc_read_exact () =
  List.iter
    (fun reps ->
      let a0 = Mrsl.Clock.allocated_bytes () in
      for _ = 1 to reps do
        list_1000 ()
      done;
      let per_run = Mrsl.Clock.allocated_since a0 /. float_of_int reps in
      Alcotest.(check bool)
        (Printf.sprintf "List.init 1000 x%d reads %.1f B/run" reps per_run)
        true
        (within ~slack:16. 24_000. per_run))
    [ 10; 1000 ];
  let a0 = Mrsl.Clock.allocated_bytes () in
  ignore (Sys.opaque_identity (Array.make 100_000 0));
  let bytes = Mrsl.Clock.allocated_since a0 in
  Alcotest.(check bool)
    (Printf.sprintf "Array.make 100_000 reads %.1f B" bytes)
    true
    (within ~slack:16. 800_008. bytes)

(* [measure] at its own sizing: 11 loops, exact B/run, and an empty run
   reads 0 B. *)
let test_measure_alloc_exact () =
  let m = Mrsl.Clock.measure list_1000 in
  Alcotest.(check int) "11 loops" 11 m.loops;
  Alcotest.(check bool)
    (Printf.sprintf "List.init 1000 x%d reads %.1f B/run" m.reps
       m.alloc_bytes_per_run)
    true
    (within ~slack:16. 24_000. m.alloc_bytes_per_run);
  let idle = Mrsl.Clock.measure ignore in
  Alcotest.(check (float 0.)) "an empty run reads 0 B" 0.
    idle.alloc_bytes_per_run

let test_alloc_span_exact () =
  let reg = T.create () in
  let mon = Mrsl.Resource.create ~telemetry:reg () in
  Mrsl.Resource.install mon;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Resource.uninstall ()))
  @@ fun () ->
  Mrsl.Resource.alloc_span ~telemetry:reg "test.alloc" (fun () ->
      ignore (Sys.opaque_identity (List.init 40 Fun.id)));
  match T.histogram reg "test.alloc" with
  | Some (s : T.summary) ->
      Alcotest.(check bool)
        (Printf.sprintf "List.init 40 observed as %.0f B" s.max)
        true
        (within ~slack:32. 960. s.max)
  | None -> Alcotest.fail "test.alloc histogram missing"

(* The pair form sizes both sides' loops alike, runs 21 loops a side,
   and reports the per-pair ratio. Each loop fills about 20 ms, so a
   side doing twice the work reads slower in the median pair. *)
let test_measure_pair () =
  let work n () =
    let r = ref 0 in
    for i = 1 to n do
      r := !r + (i land 7)
    done;
    ignore (Sys.opaque_identity !r)
  in
  let p = Mrsl.Clock.measure_pair (work 40_000) (work 20_000) in
  Alcotest.(check int) "equal reps" p.a.reps p.b.reps;
  Alcotest.(check (pair int int)) "21 loops a side" (21, 21)
    (p.a.loops, p.b.loops);
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f > 1" p.ratio)
    true (p.ratio > 1.)

let suite =
  [
    ("monitored run bit-identical", `Quick, test_monitored_bit_identical);
    ("utilization within [0,1]", `Quick, test_utilization_bounded);
    ("sample publishes gc/mem", `Quick, test_sample_publishes);
    ("alloc histograms gated by monitor", `Quick, test_alloc_histograms);
    ("cache accounting bounds reachable", `Quick, test_cache_accounting_bound);
    ("engine stats resources block", `Quick, test_engine_stats_resources);
    ("back-to-back samples", `Quick, test_back_to_back_samples);
    ("monitored restores outer monitor", `Quick, test_monitored_restores_outer);
    ("exposition domain utilization", `Quick, test_exposition_utilization);
    ("allocation read is exact", `Quick, test_alloc_read_exact);
    ("measure reads allocation exactly", `Quick, test_measure_alloc_exact);
    ("alloc_span reads allocation exactly", `Quick, test_alloc_span_exact);
    ("measure_pair ratio", `Quick, test_measure_pair);
  ]
