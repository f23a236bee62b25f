(* Tests for Gibbs sampling (Section V-A), the tuple DAG (Section V-B), and
   the workload strategies (Algorithm 3). *)

open Helpers

(* A model over 3 binary attributes with a1 = a0 deterministic-ish and a2
   independent, learned from enough data to be sharp. *)
let trained_model () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    dependent_schema (dependent_points 400)

let test_sampler_conditional_matches_infer () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let point = [| 1; 0; 1 |] in
  let via_sampler = Mrsl.Gibbs.conditional s point 1 in
  let via_infer =
    Mrsl.Infer_single.infer model [| Some 1; None; Some 1 |] 1
  in
  check_float "same estimate" (Prob.Dist.prob via_infer 0)
    (Prob.Dist.prob via_sampler 0)

let test_sampler_memo_hits () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let point = [| 1; 0; 1 |] in
  ignore (Mrsl.Gibbs.conditional s point 1);
  ignore (Mrsl.Gibbs.conditional s point 1);
  ignore (Mrsl.Gibbs.conditional s point 1);
  let hits, misses = Mrsl.Gibbs.cache_stats s in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "two hits" 2 hits

let test_sampler_memo_distinguishes_states () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  ignore (Mrsl.Gibbs.conditional s [| 1; 0; 1 |] 1);
  ignore (Mrsl.Gibbs.conditional s [| 0; 0; 1 |] 1);
  ignore (Mrsl.Gibbs.conditional s [| 1; 0; 1 |] 2);
  let _, misses = Mrsl.Gibbs.cache_stats s in
  Alcotest.(check int) "three distinct keys" 3 misses

let test_conditional_ignores_own_slot () =
  (* The memo key zeroes the resampled attribute, so the current value in
     that slot must not change the result. *)
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let a = Mrsl.Gibbs.conditional s [| 1; 0; 1 |] 1 in
  let b = Mrsl.Gibbs.conditional s [| 1; 1; 1 |] 1 in
  check_float "slot-independent" (Prob.Dist.prob a 0) (Prob.Dist.prob b 0)

let test_chain_keeps_evidence_fixed () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let r = rng () in
  let c = Mrsl.Gibbs.chain r s [| Some 1; None; None |] in
  for _ = 1 to 50 do
    let point = sweep r c in
    Alcotest.(check int) "evidence fixed" 1 point.(0);
    Array.iter
      (fun v ->
        if v < 0 || v > 1 then Alcotest.failf "value out of range: %d" v)
      point
  done

let test_chain_rejects_complete () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  Alcotest.check_raises "complete"
    (Invalid_argument "Gibbs.chain: tuple is complete") (fun () ->
      ignore (Mrsl.Gibbs.chain (rng ()) s [| Some 0; Some 0; Some 0 |]))

let test_estimate_of_points () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 0; None; None |] in
  (* 3 of 4 points at (a1=0, a2=0), 1 at (a1=1, a2=1). *)
  let points = [ [| 0; 0; 0 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |]; [| 0; 1; 1 |] ] in
  let est = Mrsl.Gibbs.estimate_of_points s tup points in
  Alcotest.(check (list int)) "missing attrs" [ 1; 2 ] est.missing;
  Alcotest.(check int) "samples used" 4 est.samples_used;
  check_float ~eps:1e-3 "cell (0,0)" 0.75 (Prob.Dist.prob est.joint 0);
  check_float ~eps:1e-3 "cell (1,1)" 0.25 (Prob.Dist.prob est.joint 3);
  check_dist_positive "smoothed positive" est.joint

let test_estimate_marginal () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 0; None; None |] in
  let points = [ [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 0; 1; 1 |] ] in
  let est = Mrsl.Gibbs.estimate_of_points s tup points in
  let m1 = Mrsl.Gibbs.marginal est 1 in
  check_float ~eps:1e-3 "marginal a1=0" 0.5 (Prob.Dist.prob m1 0);
  let m2 = Mrsl.Gibbs.marginal est 2 in
  check_float ~eps:1e-3 "marginal a2=1" 0.75 (Prob.Dist.prob m2 1);
  Alcotest.check_raises "not missing"
    (Invalid_argument "Gibbs.marginal: attribute not missing in estimate")
    (fun () -> ignore (Mrsl.Gibbs.marginal est 0))

let test_gibbs_recovers_dependency () =
  (* With a0 = 1 observed, the sampler must put almost all mass on a1 = 1,
     and close to half on each value of the independent a2. *)
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let est =
    Mrsl.Gibbs.run
      ~config:{ burn_in = 50; samples = 2000 }
      (rng ()) s
      [| Some 1; None; None |]
  in
  let m1 = Mrsl.Gibbs.marginal est 1 in
  Alcotest.(check bool) "dependency recovered" true (Prob.Dist.prob m1 1 > 0.9);
  let m2 = Mrsl.Gibbs.marginal est 2 in
  Alcotest.(check bool) "independent attr near half" true
    (Float.abs (Prob.Dist.prob m2 0 -. 0.5) < 0.1)

let test_gibbs_matches_exact_posterior_on_bn () =
  (* End-to-end: generate a BN, learn MRSL from a large sample, Gibbs-infer
     a 2-missing tuple, compare with the exact posterior — KL must be small. *)
  let entry = Bayesnet.Catalog.find "BN8" in
  let r = rng () in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 4000 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.005 }
      data
  in
  let s = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 0; Some 0; None; None |] in
  let _, truth = Bayesnet.Network.posterior_joint net tup in
  let est =
    Mrsl.Gibbs.run ~config:{ burn_in = 100; samples = 3000 } r s tup
  in
  let kl = Prob.Divergence.kl truth est.joint in
  if kl > 0.25 then Alcotest.failf "Gibbs KL too large: %f" kl

(* A single-missing tuple takes the vote: Algorithm 2's floats, nothing
   sampled, no draw from the RNG; any other tuple is refused. *)
let test_vote_is_algorithm_2 () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 1; None; Some 0 |] in
  let r = Prob.Rng.create 11 in
  let est = Mrsl.Gibbs.run r s tup in
  Alcotest.(check int) "nothing sampled" 0 est.samples_used;
  Alcotest.(check (list int)) "missing" [ 1 ] est.missing;
  Alcotest.(check bool) "Algorithm 2's floats" true
    (Prob.Dist.to_array est.joint
    = Prob.Dist.to_array (Mrsl.Infer_single.infer model tup 1));
  Alcotest.(check bool) "no draw" true
    (Prob.Rng.bits64 r = Prob.Rng.bits64 (Prob.Rng.create 11));
  List.iter
    (fun (t : Relation.Tuple.t) ->
      Alcotest.check_raises "one missing cell only"
        (Invalid_argument "Gibbs.vote: tuple must miss exactly one cell")
        (fun () -> ignore (Mrsl.Gibbs.vote s t)))
    [ [| Some 1; None; None |]; [| Some 1; Some 1; Some 0 |] ]

let test_gibbs_run_deterministic () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let run () =
    Mrsl.Gibbs.run
      ~config:{ burn_in = 10; samples = 200 }
      (Prob.Rng.create 11) s
      [| Some 0; None; None |]
  in
  let a = run () and b = run () in
  check_float "same seed, same estimate" (Prob.Dist.prob a.joint 0)
    (Prob.Dist.prob b.joint 0)

(* Tuple DAG *)

let fig3_workload () : Relation.Tuple.t list =
  (* The six incomplete tuples of Fig 3 over the Fig 1 schema:
     t1=(20,HS,?,?) t3=(20,?,50K,?) t5=(20,?,?,?)
     t8=(?,HS,?,?) t11=(30,HS,?,?) t12=(30,MS,?,?). *)
  [
    [| Some 0; Some 0; None; None |];
    [| Some 0; None; Some 0; None |];
    [| Some 0; None; None; None |];
    [| None; Some 0; None; None |];
    [| Some 1; Some 0; None; None |];
    [| Some 1; Some 2; None; None |];
  ]

let test_tuple_dag_fig3_structure () =
  let dag = Mrsl.Tuple_dag.build (fig3_workload ()) in
  Alcotest.(check int) "six nodes" 6 (Mrsl.Tuple_dag.node_count dag);
  let idx tup =
    match Mrsl.Tuple_dag.index_of dag tup with
    | Some i -> i
    | None -> Alcotest.fail "tuple not in DAG"
  in
  let t1 = idx [| Some 0; Some 0; None; None |] in
  let t3 = idx [| Some 0; None; Some 0; None |] in
  let t5 = idx [| Some 0; None; None; None |] in
  let t8 = idx [| None; Some 0; None; None |] in
  let t11 = idx [| Some 1; Some 0; None; None |] in
  let t12 = idx [| Some 1; Some 2; None; None |] in
  (* Fig 3: roots are t5 and t8 (and t12, which no tuple subsumes). *)
  let roots = Mrsl.Tuple_dag.roots dag in
  Alcotest.(check bool) "t5 is root" true (List.mem t5 roots);
  Alcotest.(check bool) "t8 is root" true (List.mem t8 roots);
  Alcotest.(check bool) "t12 is root" true (List.mem t12 roots);
  Alcotest.(check bool) "t1 not root" false (List.mem t1 roots);
  (* Edges of Fig 3: t5→t1, t5→t3, t8→t1, t8→t11. *)
  Alcotest.(check (list int)) "children of t5" (List.sort Int.compare [ t1; t3 ])
    (Mrsl.Tuple_dag.children dag t5);
  Alcotest.(check (list int)) "children of t8" (List.sort Int.compare [ t1; t11 ])
    (Mrsl.Tuple_dag.children dag t8);
  Alcotest.(check (list int)) "parents of t1" (List.sort Int.compare [ t5; t8 ])
    (Mrsl.Tuple_dag.parents dag t1);
  Alcotest.(check int) "edge count" 4 (Mrsl.Tuple_dag.edge_count dag)

let test_tuple_dag_dedup () =
  let tup : Relation.Tuple.t = [| Some 0; None; None; None |] in
  let dag = Mrsl.Tuple_dag.build [ tup; Array.copy tup; Array.copy tup ] in
  Alcotest.(check int) "deduplicated" 1 (Mrsl.Tuple_dag.node_count dag)

let test_tuple_dag_hasse_reduction () =
  (* A chain ⊥ ≺ {a0} ≺ {a0,a1}: the top must not link directly to the
     bottom. *)
  let w : Relation.Tuple.t list =
    [
      [| None; None; None |];
      [| Some 0; None; None |];
      [| Some 0; Some 0; None |];
    ]
  in
  let dag = Mrsl.Tuple_dag.build w in
  Alcotest.(check int) "two cover edges" 2 (Mrsl.Tuple_dag.edge_count dag);
  let top =
    match Mrsl.Tuple_dag.index_of dag [| None; None; None |] with
    | Some i -> i
    | None -> assert false
  in
  Alcotest.(check int) "top has one child" 1
    (List.length (Mrsl.Tuple_dag.children dag top));
  let bottom =
    match Mrsl.Tuple_dag.index_of dag [| Some 0; Some 0; None |] with
    | Some i -> i
    | None -> assert false
  in
  Alcotest.(check (list int)) "ancestors of bottom" [ top ]
    (List.filter (fun a -> a = top) (Mrsl.Tuple_dag.ancestors dag bottom))

let test_tuple_dag_rejects_complete () =
  Alcotest.check_raises "complete tuple"
    (Invalid_argument "Tuple_dag.build: complete tuples have nothing to infer")
    (fun () -> ignore (Mrsl.Tuple_dag.build [ [| Some 0; Some 1 |] ]))

let test_tuple_dag_empty () =
  let dag = Mrsl.Tuple_dag.build [] in
  Alcotest.(check int) "empty" 0 (Mrsl.Tuple_dag.node_count dag);
  Alcotest.(check (list int)) "no roots" [] (Mrsl.Tuple_dag.roots dag)

(* Workload strategies *)

let small_workload () : Relation.Tuple.t list =
  [
    [| Some 0; None; None |];
    [| Some 1; None; None |];
    [| None; None; Some 0 |];
    [| None; None; None |];
    [| Some 0; Some 0; None |];
  ]

let run_strategy strategy =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  Mrsl.Workload.run
    ~config:{ burn_in = 20; samples = 150 }
    ~strategy (Prob.Rng.create 3) s (small_workload ())

let test_workload_covers_all_tuples () =
  List.iter
    (fun strategy ->
      let result = run_strategy strategy in
      Alcotest.(check int)
        (Mrsl.Workload.strategy_name strategy ^ " covers workload")
        5
        (List.length result.estimates);
      List.iter
        (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
          (* The single-missing tuple takes the vote: exact, nothing
             sampled. *)
          if Relation.Tuple.missing_count tup = 1 then
            Alcotest.(check int) "voted: nothing sampled" 0 est.samples_used
          else
            Alcotest.(check bool) "reached target samples" true
              (est.samples_used >= 150);
          check_dist_sums_to_one "estimate normalized" est.joint)
        result.estimates)
    Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag; All_at_a_time ]

let test_workload_tuple_at_a_time_accounting () =
  let result = run_strategy Mrsl.Workload.Tuple_at_a_time in
  (* 4 multi-missing tuples × (20 burn-in + 150 samples); the
     single-missing one costs 0 sweeps. *)
  Alcotest.(check int) "sweeps" (4 * 170) result.stats.sweeps;
  Alcotest.(check int) "recorded" (4 * 150) result.stats.recorded;
  Alcotest.(check int) "nothing shared" 0 result.stats.shared

let test_workload_dag_cheaper () =
  let baseline = run_strategy Mrsl.Workload.Tuple_at_a_time in
  let dag = run_strategy Mrsl.Workload.Tuple_dag in
  Alcotest.(check bool) "tuple-DAG uses fewer sweeps" true
    (dag.stats.sweeps < baseline.stats.sweeps);
  Alcotest.(check bool) "some samples shared" true (dag.stats.shared > 0)

let test_workload_strategies_agree () =
  let baseline = run_strategy Mrsl.Workload.Tuple_at_a_time in
  let dag = run_strategy Mrsl.Workload.Tuple_dag in
  (* Section VI-D: "no difference" in accuracy. With 150 samples we allow a
     generous sampling-noise budget. *)
  let tv = Experiments.Framework.joint_agreement baseline dag in
  if tv > 0.2 then Alcotest.failf "strategies disagree: mean TV %f" tv

let test_workload_dedups () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 0; None; None |] in
  let result =
    Mrsl.Workload.run
      ~config:{ burn_in = 5; samples = 50 }
      (rng ()) s
      [ tup; Array.copy tup; Array.copy tup ]
  in
  Alcotest.(check int) "one estimate for duplicates" 1
    (List.length result.estimates)

let test_workload_empty () =
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let result = Mrsl.Workload.run (rng ()) s [] in
  Alcotest.(check int) "no estimates" 0 (List.length result.estimates);
  Alcotest.(check int) "no sweeps" 0 result.stats.sweeps

let test_workload_all_at_a_time_cap () =
  (* With a tiny max_draws, rare-evidence tuples fall back to direct
     chains but still receive estimates. *)
  let model = trained_model () in
  let s = Mrsl.Gibbs.sampler model in
  let result =
    Mrsl.Workload.run
      ~config:{ burn_in = 5; samples = 100 }
      ~strategy:Mrsl.Workload.All_at_a_time ~max_draws:10 (rng ()) s
      (small_workload ())
  in
  Alcotest.(check int) "all estimated despite cap" 5
    (List.length result.estimates);
  List.iter
    (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
      if Relation.Tuple.missing_count tup > 1 then
        Alcotest.(check bool) "has samples" true (est.samples_used > 0))
    result.estimates

(* Property: tuple-DAG roots are exactly the nodes nothing else subsumes. *)
let prop_dag_roots_unsubsumed =
  qcheck ~count:60 "DAG roots are unsubsumed"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let workload =
        List.init 12 (fun _ ->
            let tup =
              Array.init 3 (fun _ ->
                  if Prob.Rng.bool r then Some (Prob.Rng.int r 2) else None)
            in
            if Relation.Tuple.is_complete tup then tup.(0) <- None;
            tup)
      in
      let dag = Mrsl.Tuple_dag.build workload in
      let tuples = Mrsl.Tuple_dag.tuples dag in
      List.for_all
        (fun i ->
          not
            (Array.exists
               (fun other -> Relation.Tuple.subsumes other tuples.(i))
               tuples))
        (Mrsl.Tuple_dag.roots dag))

(* Property: sharing only ever delivers matching samples, so every strategy
   produces estimates concentrated on completions consistent with the
   tuple's evidence. *)
let prop_estimates_respect_evidence =
  qcheck ~count:20 "estimates respect evidence"
    QCheck2.Gen.(int_range 0 100)
    (fun seed ->
      let model = trained_model () in
      let s = Mrsl.Gibbs.sampler model in
      let result =
        Mrsl.Workload.run
          ~config:{ burn_in = 5; samples = 60 }
          ~strategy:Mrsl.Workload.Tuple_dag (Prob.Rng.create seed) s
          (small_workload ())
      in
      List.for_all
        (fun ((tup : Relation.Tuple.t), (est : Mrsl.Gibbs.estimate)) ->
          (* The estimate's missing set must be exactly the tuple's. *)
          est.missing = Relation.Tuple.missing tup)
        result.estimates)

let suite =
  [
    ("sampler conditional = Algorithm 2", `Quick,
     test_sampler_conditional_matches_infer);
    ("sampler memoization", `Quick, test_sampler_memo_hits);
    ("memo distinguishes states", `Quick, test_sampler_memo_distinguishes_states);
    ("conditional ignores own slot", `Quick, test_conditional_ignores_own_slot);
    ("chain keeps evidence fixed", `Quick, test_chain_keeps_evidence_fixed);
    ("chain rejects complete tuples", `Quick, test_chain_rejects_complete);
    ("estimate from points", `Quick, test_estimate_of_points);
    ("estimate marginal", `Quick, test_estimate_marginal);
    ("gibbs recovers dependency", `Quick, test_gibbs_recovers_dependency);
    ("gibbs matches exact posterior", `Slow,
     test_gibbs_matches_exact_posterior_on_bn);
    ("gibbs deterministic by seed", `Quick, test_gibbs_run_deterministic);
    ("vote = Algorithm 2, no draw", `Quick, test_vote_is_algorithm_2);
    ("tuple DAG reproduces Fig 3", `Quick, test_tuple_dag_fig3_structure);
    ("tuple DAG dedup", `Quick, test_tuple_dag_dedup);
    ("tuple DAG Hasse reduction", `Quick, test_tuple_dag_hasse_reduction);
    ("tuple DAG rejects complete", `Quick, test_tuple_dag_rejects_complete);
    ("tuple DAG empty workload", `Quick, test_tuple_dag_empty);
    ("workload covers all tuples", `Quick, test_workload_covers_all_tuples);
    ("tuple-at-a-time accounting", `Quick,
     test_workload_tuple_at_a_time_accounting);
    ("tuple-DAG is cheaper", `Quick, test_workload_dag_cheaper);
    ("strategies agree (Section VI-D)", `Quick, test_workload_strategies_agree);
    ("workload dedups", `Quick, test_workload_dedups);
    ("workload empty", `Quick, test_workload_empty);
    ("all-at-a-time honors cap", `Quick, test_workload_all_at_a_time_cap);
    prop_dag_roots_unsubsumed;
    prop_estimates_respect_evidence;
  ]

(* Parallel workload inference *)

(* A noisy a0 -> a1 dependency (25% flips) mixes fast even for the fully
   unknown tuple t*, so accuracy parity between two independent samplers
   is a sound assertion. (With the hard a1 = a0 dependency of
   [trained_model], the t* chain is bimodal and mode-sticky: two runs
   with different RNG streams legitimately land in different modes, and
   any TV-based parity test only passes when the streams coincide.) *)
let mixing_model () =
  let points =
    Array.init 600 (fun i ->
        let a0 = i mod 2 in
        let a1 = if i mod 3 = 1 then 1 - a0 else a0 in
        [| a0; a1; i / 2 mod 2 |])
  in
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    dependent_schema points

let test_parallel_covers_and_agrees () =
  let model = mixing_model () in
  let workload = small_workload () in
  let config = { Mrsl.Gibbs.burn_in = 50; samples = 1500 } in
  let result =
    (Mrsl.Workload.run_contained ~config ~domains:3 ~seed:5 model workload)
      .result
  in
  Alcotest.(check int) "all tuples estimated" 5 (List.length result.estimates);
  (* Accuracy parity with a sequential run (within sampling noise). *)
  let sampler = Mrsl.Gibbs.sampler model in
  let sequential =
    Mrsl.Workload.run ~config (Prob.Rng.create 5) sampler workload
  in
  let tv = Experiments.Framework.joint_agreement sequential result in
  if tv > 0.15 then Alcotest.failf "parallel estimates diverge: TV %f" tv

let test_parallel_deterministic () =
  let model = trained_model () in
  let run () =
    (Mrsl.Workload.run_contained
       ~config:{ burn_in = 10; samples = 100 }
       ~domains:2 ~seed:9 model (small_workload ()))
      .result
  in
  let a = run () and b = run () in
  List.iter2
    (fun (_, (ea : Mrsl.Gibbs.estimate)) (_, (eb : Mrsl.Gibbs.estimate)) ->
      check_float "same seed, same estimates"
        (Prob.Dist.prob ea.joint 0)
        (Prob.Dist.prob eb.joint 0))
    a.estimates b.estimates

(* [Workload.run] is the scheduler on one worker, seeded by one draw
   from its RNG: [run_contained] with that seed must reproduce it bit for
   bit at every domain count — estimates and counters, both scheduled
   strategies. *)
let test_run_matches_run_contained () =
  let model = trained_model () in
  let workload = small_workload () in
  let config = { Mrsl.Gibbs.burn_in = 10; samples = 50 } in
  List.iter
    (fun strategy ->
      let rng = Prob.Rng.create 2 in
      let seed = Int64.to_int (Prob.Rng.bits64 (Prob.Rng.copy rng)) in
      let run =
        Mrsl.Workload.run ~config ~strategy rng (Mrsl.Gibbs.sampler model)
          workload
      in
      List.iter
        (fun domains ->
          let par =
            (Mrsl.Workload.run_contained ~config ~strategy ~domains ~seed model
               workload)
              .result
          in
          let msg what =
            Printf.sprintf "%s, %d domains: %s"
              (Mrsl.Workload.strategy_name strategy)
              domains what
          in
          Alcotest.(check int) (msg "sweeps") run.stats.sweeps par.stats.sweeps;
          Alcotest.(check int) (msg "recorded") run.stats.recorded
            par.stats.recorded;
          Alcotest.(check int) (msg "shared") run.stats.shared par.stats.shared;
          Alcotest.(check int) (msg "estimates") 5 (List.length par.estimates);
          List.iter2
            (fun (ta, (ea : Mrsl.Gibbs.estimate))
                 (tb, (eb : Mrsl.Gibbs.estimate)) ->
              Alcotest.(check bool) (msg "tuple order") true
                (Relation.Tuple.equal ta tb);
              Alcotest.(check int) (msg "samples") ea.samples_used
                eb.samples_used;
              Alcotest.(check (array (float 0.))) (msg "joint")
                (Prob.Dist.to_array ea.joint)
                (Prob.Dist.to_array eb.joint))
            run.estimates par.estimates)
        [ 1; 2; 4 ])
    Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ]

let test_parallel_rejects_bad_domains () =
  let model = trained_model () in
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Workload.run_contained: domains must be >= 1")
    (fun () ->
      ignore
        (Mrsl.Workload.run_contained ~domains:0 ~seed:1 model
           (small_workload ())))

(* The scheduler's core guarantee: per-task RNG streams seeded by stable
   node identity + pull-based donation make the result a pure function of
   (seed, workload) — the domain count and which worker ran which task
   must not leak into a single probability. *)
let test_parallel_bit_identical_across_domains () =
  let model = trained_model () in
  let workload = small_workload () in
  let run domains =
    (Mrsl.Workload.run_contained
       ~config:{ burn_in = 20; samples = 200 }
       ~domains ~seed:17 model workload)
      .result
  in
  let reference = run 1 in
  List.iter
    (fun domains ->
      let result = run domains in
      Alcotest.(check int)
        (Printf.sprintf "domains:%d sweeps" domains)
        reference.stats.sweeps result.stats.sweeps;
      Alcotest.(check int)
        (Printf.sprintf "domains:%d recorded" domains)
        reference.stats.recorded result.stats.recorded;
      Alcotest.(check int)
        (Printf.sprintf "domains:%d shared" domains)
        reference.stats.shared result.stats.shared;
      List.iter2
        (fun (ta, (ea : Mrsl.Gibbs.estimate)) (tb, (eb : Mrsl.Gibbs.estimate)) ->
          Alcotest.(check bool) "same tuple order" true (ta = tb);
          Alcotest.(check int) "same sample count" ea.samples_used
            eb.samples_used;
          let total = Relation.Domain.count ea.cards in
          for code = 0 to total - 1 do
            (* bit-identical, not approximately equal *)
            Alcotest.(check (float 0.))
              (Printf.sprintf "domains:%d joint[%d]" domains code)
              (Prob.Dist.prob ea.joint code)
              (Prob.Dist.prob eb.joint code)
          done)
        reference.estimates result.estimates)
    [ 2; 4 ]

(* Bucket-emptying must not shift seed streams: with the old
   bucket-indexed seeding, estimates changed when a partition bucket
   drained. Task seeds now derive from DAG node identity, so adding an
   unrelated tuple to the workload must not perturb the others'
   estimates... it does change the DAG, so instead assert the documented
   invariant directly: same seed + same workload = same estimates even
   when the requested domain count exceeds the node count (workers that
   find no ready task, the analogue of empty buckets). *)
let test_parallel_seed_stable_under_empty_deques () =
  let model = trained_model () in
  let workload = small_workload () in
  let run domains =
    (Mrsl.Workload.run_contained
       ~config:{ burn_in = 10; samples = 100 }
       ~domains ~seed:23 model workload)
      .result
  in
  let a = run 5 (* capped to 5 nodes *) and b = run 64 (* heavily over-asked *) in
  List.iter2
    (fun (_, (ea : Mrsl.Gibbs.estimate)) (_, (eb : Mrsl.Gibbs.estimate)) ->
      check_float "over-asked domains leave estimates unchanged"
        (Prob.Dist.prob ea.joint 0)
        (Prob.Dist.prob eb.joint 0))
    a.estimates b.estimates

let test_parallel_strategy_tuple_at_a_time () =
  let model = trained_model () in
  let result =
    (Mrsl.Workload.run_contained
       ~config:{ burn_in = 10; samples = 50 }
       ~strategy:Tuple_at_a_time ~domains:2 ~seed:11 model
       (small_workload ()))
      .result
  in
  Alcotest.(check int) "all estimated" 5 (List.length result.estimates);
  Alcotest.(check int) "no sharing without DAG edges" 0 result.stats.shared

let test_parallel_telemetry_counters () =
  let model = trained_model () in
  let telemetry = Mrsl.Telemetry.create () in
  let _ =
    Mrsl.Workload.run_contained
      ~config:{ burn_in = 5; samples = 40 }
      ~domains:2 ~telemetry ~seed:3 model (small_workload ())
  in
  (* Subsumees can complete purely on donated samples without ever
     becoming tasks, so the task count is 1..nodes, not exactly nodes. *)
  let tasks = Mrsl.Telemetry.counter telemetry "parallel.tasks" in
  Alcotest.(check bool) "tasks counted" true (tasks >= 1 && tasks <= 5);
  Alcotest.(check bool)
    "sweeps counted" true
    (Mrsl.Telemetry.counter telemetry "workload.sweeps" > 0);
  match Mrsl.Telemetry.gauge_value telemetry "parallel.domains" with
  | Some d -> Alcotest.(check (float 0.)) "domains gauge" 2. d
  | None -> Alcotest.fail "parallel.domains gauge missing"

let suite =
  suite
  @ [
      ("parallel covers and agrees", `Quick, test_parallel_covers_and_agrees);
      ("parallel deterministic", `Quick, test_parallel_deterministic);
      ("run = run_contained, 1/2/4 domains", `Quick,
       test_run_matches_run_contained);
      ("parallel rejects bad domains", `Quick, test_parallel_rejects_bad_domains);
      ("parallel bit-identical across domains", `Quick,
       test_parallel_bit_identical_across_domains);
      ("parallel seed stable under empty deques", `Quick,
       test_parallel_seed_stable_under_empty_deques);
      ("parallel tuple-at-a-time strategy", `Quick,
       test_parallel_strategy_tuple_at_a_time);
      ("parallel telemetry counters", `Quick, test_parallel_telemetry_counters);
    ]

(* The sequential convergence-retry loop the executor's [~retry] node
   task must reproduce, kept here as its reference: fill a bag of N rows
   after B burn-in sweeps, check its split-R̂ (or a failure forced by the
   tuple's fault-injection key); while R̂ > 1.1 and the budget allows,
   fill a fresh bag of twice the capacity from a fresh chain on the same
   [rng]. Counts [gibbs.checked] once, [gibbs.retries] per retry and
   [degrade.nonconverged] on exhaustion; traced, each attempt is a
   [gibbs.attempt] slice followed by a [gibbs.convergence] counter. *)
type retried = {
  estimate : Mrsl.Gibbs.estimate;
  rhat : float;
  converged : bool;
  attempts : int;
  total_sweeps : int;
}

let run_with_retries ?(config = Mrsl.Gibbs.default_config)
    ?(policy = Mrsl.Diagnostics.default_retry_policy)
    ?(telemetry = Mrsl.Telemetry.global) rng sampler tup =
  let total_sweeps = ref 0 in
  let schema = Mrsl.Model.schema (Mrsl.Gibbs.model sampler) in
  let draw draws =
    let bag = Mrsl.Sample_bag.create schema ~capacity:draws tup in
    Mrsl.Gibbs.fill ~telemetry ~burn_in:config.Mrsl.Gibbs.burn_in rng sampler
      bag;
    total_sweeps := !total_sweeps + config.Mrsl.Gibbs.burn_in + draws;
    bag
  in
  let forced =
    let cards =
      Array.init (Relation.Schema.arity schema)
        (Relation.Schema.cardinality schema)
    in
    Mrsl.Fault_inject.should_force_nonconvergence
      ~key:(Mrsl.Fault_inject.tuple_code ~cards tup)
  in
  Mrsl.Telemetry.incr telemetry "gibbs.checked";
  let rec go attempt draws =
    let bag =
      Mrsl.Trace.complete ~cat:"gibbs"
        ~args:
          [
            ("attempt", Mrsl.Trace.Int attempt);
            ("draws", Mrsl.Trace.Int draws);
          ]
        "gibbs.attempt"
        (fun () -> draw draws)
    in
    let estimate = Mrsl.Gibbs.estimate_of_bag bag in
    let rhat =
      if forced then Float.infinity else Mrsl.Diagnostics.split_rhat bag
    in
    if Mrsl.Trace.enabled () then begin
      let _, ess = Mrsl.Diagnostics.convergence_snapshot bag in
      Mrsl.Trace.counter ~cat:"gibbs" "gibbs.convergence"
        [
          ("rhat", if Float.is_finite rhat then rhat else 1e6);
          ("ess", ess);
          ("attempt", float_of_int attempt);
        ]
    end;
    if rhat <= 1.1 then
      {
        estimate;
        rhat;
        converged = true;
        attempts = attempt;
        total_sweeps = !total_sweeps;
      }
    else begin
      let next = 2 * draws in
      if
        attempt <= policy.Mrsl.Diagnostics.max_retries
        && !total_sweeps + config.Mrsl.Gibbs.burn_in + next
           <= policy.max_total_sweeps
      then begin
        Mrsl.Telemetry.incr telemetry "gibbs.retries";
        go (attempt + 1) next
      end
      else begin
        Mrsl.Telemetry.incr telemetry "degrade.nonconverged";
        {
          estimate;
          rhat;
          converged = false;
          attempts = attempt;
          total_sweeps = !total_sweeps;
        }
      end
    end
  in
  go 1 config.Mrsl.Gibbs.samples

(* Golden pins for every chain path outside the executor's multi-missing
   node task, which [probdb golden: multi-missing blocks] already pins:
   [Gibbs.run], the reference [run_with_retries] above (default policy,
   and under forced nonconvergence), [Diagnostics.diagnose], the
   per-stride convergence readings of a traced workload and of the retry
   reference (split-R̂ and min ESS over growing row prefixes), and a
   capped all-at-a-time run whose fallback chains fire. Each path has its
   own digest of exact floats ([%h]), so a moved digest names the path
   that moved. *)
let golden_chain_fixture =
  lazy
    (let entry = Bayesnet.Catalog.find "BN10" in
     let r = Prob.Rng.create 2027 in
     let net = Bayesnet.Network.generate r entry.topology in
     let model =
       Mrsl.Model.learn
         ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
         (Bayesnet.Network.sample_instance r net 1000)
     in
     let arity = Bayesnet.Topology.size entry.topology in
     let tuples =
       List.init 12 (fun i ->
           let tup =
             Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
           in
           List.iter
             (fun a -> tup.(a) <- None)
             (Prob.Rng.sample_without_replacement r (1 + (i mod 5)) arity);
           tup)
     in
     (model, tuples))

let digest_lines f =
  let buf = Buffer.create 4096 in
  f buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let add_estimate buf (e : Mrsl.Gibbs.estimate) =
  List.iter (Printf.bprintf buf "%d,") e.missing;
  Printf.bprintf buf "n%d:" e.samples_used;
  Array.iter (Printf.bprintf buf "%h;") (e.joint :> float array);
  Buffer.add_char buf '\n'

(* Every [gibbs.convergence] counter [f] emits, in emission order. *)
let add_convergence_counters buf f =
  let sink = Mrsl.Trace.create () in
  Mrsl.Trace.install sink;
  Fun.protect ~finally:(fun () -> ignore (Mrsl.Trace.uninstall ())) f;
  List.iter
    (fun (e : Mrsl.Trace.event) ->
      if e.name = "gibbs.convergence" then begin
        List.iter
          (fun (k, v) ->
            match v with
            | Mrsl.Trace.Float x -> Printf.bprintf buf "%s=%h " k x
            | Mrsl.Trace.Int n -> Printf.bprintf buf "%s=%d " k n
            | Mrsl.Trace.Str s -> Printf.bprintf buf "%s=%s " k s)
          e.args;
        Buffer.add_char buf '\n'
      end)
    (Mrsl.Trace.events sink)

let test_golden_chain_paths () =
  let model, tuples = Lazy.force golden_chain_fixture in
  let sampler = Mrsl.Gibbs.sampler model in
  let telemetry = Mrsl.Telemetry.create () in
  let multi =
    List.filter (fun t -> Relation.Tuple.missing_count t >= 2) tuples
  in
  let retries buf =
    List.iteri
      (fun i tup ->
        let c =
          run_with_retries
            ~config:{ burn_in = 10; samples = 40 }
            ~telemetry (Prob.Rng.create (200 + i)) sampler tup
        in
        add_estimate buf c.estimate;
        Printf.bprintf buf "rhat=%h attempts=%d sweeps=%d converged=%b\n"
          c.rhat c.attempts c.total_sweeps c.converged)
      tuples
  in
  let forced f =
    Mrsl.Fault_inject.with_config
      {
        Mrsl.Fault_inject.disabled with
        seed = 2011;
        nonconvergence_rate = 0.5;
      }
      f
  in
  let capped = ref 0 in
  List.iter
    (fun (path, expected, f) ->
      Alcotest.(check string) (path ^ " digest") expected (digest_lines f))
    [
      ( "Gibbs.run",
        "dc9a1f165b5f75aeb7f4866b8a763835",
        fun buf ->
          List.iteri
            (fun i tup ->
              add_estimate buf
                (Mrsl.Gibbs.run
                   ~config:{ burn_in = 15; samples = 60 + (20 * i) }
                   (Prob.Rng.create (100 + i))
                   sampler tup))
            tuples );
      ( "run_with_retries default policy",
        "67c8a8d818ccea5c4ecd78ea4cbd2e71",
        retries );
      ( "run_with_retries forced nonconvergence",
        "f5864d854c057633ddae0ea0ab807223",
        fun buf -> forced (fun () -> retries buf) );
      ( "diagnose",
        "d0534b8b54737c375592d0ab2e078d96",
        fun buf ->
          List.iteri
            (fun i tup ->
              let r =
                Mrsl.Diagnostics.diagnose ~chains:3 ~draws:120 ~burn_in:10
                  (Prob.Rng.create (300 + i))
                  sampler tup
              in
              Printf.bprintf buf "psrf=%h ess=%h\n" r.psrf_max r.ess_min)
            multi );
      ( "convergence timeline",
        "58f27e833df0d2f63f62fda7f04f99d3",
        fun buf ->
          add_convergence_counters buf (fun () ->
              ignore
                (Mrsl.Workload.run_contained
                   ~config:{ burn_in = 10; samples = 80 }
                   ~telemetry ~domains:1 ~seed:2027 model tuples));
          add_convergence_counters buf (fun () ->
              forced (fun () -> retries buf)) );
      ( "all-at-a-time capped",
        "91c5efa0daeb3596bd531691abda0003",
        fun buf ->
          let r =
            Mrsl.Workload.run
              ~config:{ burn_in = 10; samples = 50 }
              ~strategy:Mrsl.Workload.All_at_a_time ~max_draws:200 ~telemetry
              (Prob.Rng.create 2027) sampler tuples
          in
          capped := r.stats.sweeps;
          List.iter (fun (_, e) -> add_estimate buf e) r.estimates;
          Printf.bprintf buf "sweeps=%d recorded=%d shared=%d\n" r.stats.sweeps
            r.stats.recorded r.stats.shared );
    ];
  (* The main chain stops at 10 + 200 sweeps; anything beyond is a
     fallback chain for a tuple the main chain never matched. *)
  if !capped <= 210 then
    Alcotest.failf "all-at-a-time fallback did not fire (%d sweeps)" !capped

(* [Gibbs.step] reads each cell's table through the plan its chain
   resolved at start. Beside it runs a reference chain that takes every
   conditional from the public [Gibbs.conditional] (its start from
   [Infer_single.infer] on the evidence alone) and draws with the
   recursive inverse-CDF walk. The two must hold the same point after
   every step: with warm tables, on a new epoch whose tables start cold,
   unmemoized, and with the kernel off. *)
let chain_plan_fixture =
  lazy
    (let entry = Bayesnet.Catalog.find "BN10" in
     let r = Prob.Rng.create 2028 in
     let net = Bayesnet.Network.generate r entry.topology in
     let data = Bayesnet.Network.sample_instance r net 1000 in
     let learn () =
       Mrsl.Model.learn
         ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
         data
     in
     let arity = Bayesnet.Topology.size entry.topology in
     let tuples =
       List.init 8 (fun i ->
           let tup =
             Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
           in
           List.iter
             (fun a -> tup.(a) <- None)
             (Prob.Rng.sample_without_replacement r (2 + (i mod 4)) arity);
           tup)
     in
     (learn (), learn, tuples))

let chain_plan_steps = 60

(* Runs every tuple's chain beside its reference and checks the chain
   sampler's probes: one per missing cell at start and per step, or none
   when the tables are bypassed. Returns (hits, misses). *)
let check_chain_plan ?memoize ?(bypassed = false) name model tuples =
  let s = Mrsl.Gibbs.sampler ?memoize model
  and reference = Mrsl.Gibbs.sampler ?memoize model in
  let cells = ref 0 in
  List.iteri
    (fun i tup ->
      let missing = Relation.Tuple.missing tup in
      let r = Prob.Rng.create (400 + i) in
      let r_ref = Prob.Rng.copy r in
      let c = Mrsl.Gibbs.chain r s tup in
      let point = Array.map (function Some v -> v | None -> -1) tup in
      List.iter
        (fun a ->
          point.(a) <-
            Test_prob.recursive_sample r_ref
              (Mrsl.Infer_single.infer model tup a))
        missing;
      let same when_ =
        if Mrsl.Gibbs.current c <> point then
          Alcotest.failf "%s: tuple %d differs %s" name i when_
      in
      same "after chain start";
      for k = 1 to chain_plan_steps do
        Mrsl.Gibbs.step r c;
        List.iter
          (fun a ->
            point.(a) <-
              Test_prob.recursive_sample r_ref
                (Mrsl.Gibbs.conditional reference point a))
          missing;
        same (Printf.sprintf "after step %d" k)
      done;
      cells := !cells + List.length missing)
    tuples;
  let hits, misses = Mrsl.Gibbs.cache_stats s in
  if bypassed then
    Alcotest.(check (pair int int)) (name ^ ": no probe") (0, 0) (hits, misses)
  else
    Alcotest.(check int)
      (name ^ ": hits + misses")
      (!cells * (chain_plan_steps + 1))
      (hits + misses);
  (hits, misses)

let test_chain_plan_matches_conditional () =
  let model, learn, tuples = Lazy.force chain_plan_fixture in
  let _, cold_misses = check_chain_plan "cold" model tuples in
  Alcotest.(check bool) "cold tables miss and store" true (cold_misses > 0);
  let warm_hits, warm_misses = check_chain_plan "warm" model tuples in
  Alcotest.(check bool) "warm tables hit" true (warm_hits > warm_misses);
  let _, fresh_misses = check_chain_plan "new epoch" (learn ()) tuples in
  Alcotest.(check bool) "a new epoch starts cold" true (fresh_misses > 0);
  ignore
    (check_chain_plan ~memoize:false ~bypassed:true "memoize off" model tuples);
  let prev = Mrsl.Kernel.enabled () in
  Mrsl.Kernel.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Mrsl.Kernel.set_enabled prev)
    (fun () ->
      ignore (check_chain_plan ~bypassed:true "kernel off" model tuples))

(* [run_contained ~retry] folds the retry loop into the executor's node
   task. Its fixture adds, for every multi-missing golden tuple, the same
   tuple with one more cell masked, so the tuple DAG has donation edges. *)
let retry_workload ?(max_missing = 5) () =
  let model, tuples = Lazy.force golden_chain_fixture in
  let tuples =
    List.filter (fun t -> Relation.Tuple.missing_count t <= max_missing) tuples
  in
  let wider =
    List.filter_map
      (fun t ->
        match Relation.Tuple.known t with
        | (a, _) :: _ when Relation.Tuple.missing_count t >= 2 ->
            let w = Array.copy t in
            w.(a) <- None;
            Some w
        | _ -> None)
      tuples
  in
  (model, tuples @ wider)

let retry_config = { Mrsl.Gibbs.burn_in = 10; samples = 40 }
let retry_seed = 2027

let forced_half f =
  Mrsl.Fault_inject.with_config
    { Mrsl.Fault_inject.disabled with seed = 2011; nonconvergence_rate = 0.5 }
    f

let run_retry ?(domains = 1) ?(telemetry = Mrsl.Telemetry.create ()) strategy
    model tuples =
  Mrsl.Workload.run_contained ~config:retry_config ~strategy ~domains
    ~telemetry ~retry:Mrsl.Diagnostics.default_retry_policy ~seed:retry_seed
    model tuples

let same_estimate what (a : Mrsl.Gibbs.estimate) (b : Mrsl.Gibbs.estimate) =
  if
    a.samples_used <> b.samples_used
    || Prob.Dist.to_array a.joint <> Prob.Dist.to_array b.joint
  then Alcotest.failf "%s: estimates differ" what

let same_check what (a : Mrsl.Workload.check) (b : Mrsl.Workload.check) =
  if
    Int64.bits_of_float a.rhat <> Int64.bits_of_float b.rhat
    || a.converged <> b.converged || a.attempts <> b.attempts
    || a.sweeps <> b.sweeps
  then Alcotest.failf "%s: checks differ" what

(* Tuple-at-a-time under [~retry] is the reference loop seeded with each
   node's task seed, bit for bit: estimate, R̂, attempts, sweeps and
   verdict, and the same check/retry/degrade counts. *)
let test_retry_matches_reference () =
  let model, tuples = retry_workload () in
  let dag = Mrsl.Tuple_dag.build tuples in
  let sampler = Mrsl.Gibbs.sampler model in
  let compare_run label =
    let telemetry = Mrsl.Telemetry.create ()
    and reference = Mrsl.Telemetry.create () in
    let c = run_retry ~telemetry Mrsl.Workload.Tuple_at_a_time model tuples in
    let retried = ref 0 in
    List.iter
      (fun (tup, est) ->
        let node = Option.get (Mrsl.Tuple_dag.index_of dag tup) in
        let what = Printf.sprintf "%s, node %d" label node in
        match List.assoc_opt tup c.checks with
        | None ->
            if Relation.Tuple.missing_count tup >= 2 then
              Alcotest.failf "%s: a chain node went unchecked" what
        | Some check ->
            let rng =
              Prob.Rng.create (Test_sample_bag.task_seed ~seed:retry_seed node)
            in
            let r =
              run_with_retries ~config:retry_config ~telemetry:reference rng
                sampler tup
            in
            if r.attempts > 1 then incr retried;
            same_estimate what r.estimate est;
            same_check what
              {
                rhat = r.rhat;
                converged = r.converged;
                attempts = r.attempts;
                sweeps = r.total_sweeps;
              }
              check)
      c.result.estimates;
    List.iter
      (fun key ->
        Alcotest.(check int)
          (label ^ ": " ^ key)
          (Mrsl.Telemetry.counter reference key)
          (Mrsl.Telemetry.counter telemetry key))
      [ "gibbs.checked"; "gibbs.retries"; "degrade.nonconverged" ];
    Alcotest.(check bool) (label ^ ": some node retried") true (!retried > 0)
  in
  compare_run "default policy";
  forced_half (fun () -> compare_run "forced rate 0.5")

(* The determinism contract holds with [~retry]: both scheduled
   strategies give identical estimates, checks and counters at 1, 2 and
   4 domains under forced nonconvergence. *)
let test_retry_across_domains () =
  let model, tuples = retry_workload () in
  forced_half (fun () ->
      List.iter
        (fun strategy ->
          let name = Mrsl.Workload.strategy_name strategy in
          let base = run_retry strategy model tuples in
          List.iter
            (fun domains ->
              let c = run_retry ~domains strategy model tuples in
              let what = Printf.sprintf "%s, %d domains" name domains in
              List.iter2
                (fun (_, a) (_, b) -> same_estimate what a b)
                base.result.estimates c.result.estimates;
              List.iter2
                (fun (_, a) (_, b) -> same_check what a b)
                base.checks c.checks;
              Alcotest.(check (list int))
                (what ^ ": sweeps, recorded, shared")
                [
                  base.result.stats.sweeps;
                  base.result.stats.recorded;
                  base.result.stats.shared;
                ]
                [
                  c.result.stats.sweeps;
                  c.result.stats.recorded;
                  c.result.stats.shared;
                ])
            [ 2; 4 ];
          Alcotest.(check bool) (name ^ ": some node checked") true
            (base.checks <> []))
        Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ])

(* A node whose check passed on its first attempt, with no retried
   ancestor, is exactly what the run without [~retry] computes: the check
   reads the bag and draws nothing. Tuples with at most three missing
   cells keep the DAG shallow enough that some checked node has no
   retried ancestor. *)
let test_retry_first_attempt_unchanged () =
  let model, tuples = retry_workload ~max_missing:3 () in
  let dag = Mrsl.Tuple_dag.build tuples in
  forced_half (fun () ->
      List.iter
        (fun strategy ->
          let name = Mrsl.Workload.strategy_name strategy in
          let c = run_retry strategy model tuples in
          let plain =
            Mrsl.Workload.run_contained ~config:retry_config ~strategy
              ~domains:1 ~telemetry:(Mrsl.Telemetry.create ())
              ~seed:retry_seed model tuples
          in
          let attempts tup =
            match List.assoc_opt tup c.checks with
            | Some (k : Mrsl.Workload.check) -> k.attempts
            | None -> 1
          in
          let rec retried_above i =
            strategy = Mrsl.Workload.Tuple_dag
            && List.exists
                 (fun p ->
                   attempts (Mrsl.Tuple_dag.tuple dag p) > 1 || retried_above p)
                 (Mrsl.Tuple_dag.parents dag i)
          in
          let unchanged = ref 0 and retried = ref 0 in
          List.iter2
            (fun (tup, a) (_, b) ->
              let i = Option.get (Mrsl.Tuple_dag.index_of dag tup) in
              if attempts tup > 1 then incr retried
              else if not (retried_above i) then begin
                same_estimate (Printf.sprintf "%s, node %d" name i) b a;
                if List.mem_assoc tup c.checks then incr unchanged
              end)
            c.result.estimates plain.result.estimates;
          Alcotest.(check bool) (name ^ ": both kinds of node") true
            (!unchanged > 0 && !retried > 0))
        Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ])

(* A single-missing tuple is voted under [~retry] too: no chain, no
   check, the vote's exact answer. *)
let test_retry_votes_single_missing () =
  let model, tuples = Lazy.force golden_chain_fixture in
  let single =
    List.find (fun t -> Relation.Tuple.missing_count t = 1) tuples
  in
  let telemetry = Mrsl.Telemetry.create () in
  let c =
    forced_half (fun () ->
        run_retry ~telemetry Mrsl.Workload.Tuple_at_a_time model [ single ])
  in
  Alcotest.(check int) "no check" 0 (List.length c.checks);
  Alcotest.(check int) "no gibbs.checked" 0
    (Mrsl.Telemetry.counter telemetry "gibbs.checked");
  Alcotest.(check int) "no chain" 0
    (Mrsl.Telemetry.counter telemetry "gibbs.chains");
  match c.result.estimates with
  | [ (_, est) ] ->
      same_estimate "vote" (Mrsl.Gibbs.vote (Mrsl.Gibbs.sampler model) single)
        est
  | _ -> Alcotest.fail "expected one estimate"

let suite =
  suite
  @ [
      ("golden: chain paths", `Quick, test_golden_chain_paths);
      ("retry = reference loop at task seeds", `Quick,
       test_retry_matches_reference);
      ("retry identical at 1/2/4 domains", `Quick, test_retry_across_domains);
      ("retry first attempt = no retry", `Quick,
       test_retry_first_attempt_unchanged);
      ("retry votes single-missing tuples", `Quick,
       test_retry_votes_single_missing);
      ("chain plan = public conditional", `Quick,
       test_chain_plan_matches_conditional);
    ]
