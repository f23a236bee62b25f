(* Quality-observability suite (statistical quality PR).

   Covers the Quality monitor's calibration math (ECE/MCE bin edges,
   Brier decomposition sanity, the p = 0 / p = 1 endpoints), the
   deterministic shadow-cell selection, the drift detector, the
   degradation-rung provenance of Infer_single.explain, the
   epsilon-smoothed KL satellite, and the headline acceptance property:
   a quality-monitored multi-domain inference run is bit-identical to an
   unmonitored one. *)

module Q = Mrsl.Quality
module T = Mrsl.Telemetry

let dependent_model ?(n = 300) () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    Helpers.dependent_schema
    (Helpers.dependent_points n)

let monitor ?(config = Q.default_config) () =
  (* Tests use private sinks so the global registry stays clean for the
     metrics suite's dynamic half. *)
  Q.create ~config ~telemetry:(T.create ()) ()

(* --- deterministic cell selection ------------------------------------ *)

let test_should_mask_deterministic () =
  let cfg = { Q.default_config with mask_fraction = 0.3; seed = 99 } in
  for row = 0 to 50 do
    for attr = 0 to 7 do
      let a = Q.should_mask cfg ~row ~attr in
      let b = Q.should_mask cfg ~row ~attr in
      Alcotest.(check bool) "same cell, same answer" a b
    done
  done;
  (* different seeds decorrelate the pattern *)
  let differs = ref false in
  for row = 0 to 200 do
    if
      Q.should_mask cfg ~row ~attr:0
      <> Q.should_mask { cfg with seed = 100 } ~row ~attr:0
    then differs := true
  done;
  Alcotest.(check bool) "seed changes the mask" true !differs

let test_should_mask_fraction () =
  let count frac =
    let cfg = { Q.default_config with mask_fraction = frac } in
    let c = ref 0 in
    for row = 0 to 999 do
      for attr = 0 to 3 do
        if Q.should_mask cfg ~row ~attr then incr c
      done
    done;
    !c
  in
  Alcotest.(check int) "fraction 0 masks nothing" 0 (count 0.);
  Alcotest.(check int) "fraction 1 masks everything" 4000 (count 1.);
  let observed = float_of_int (count 0.2) /. 4000. in
  Alcotest.(check bool)
    (Printf.sprintf "fraction 0.2 masks ~20%% (observed %.3f)" observed)
    true
    (Float.abs (observed -. 0.2) < 0.03)

(* --- sharpen (the injection hook) ------------------------------------ *)

let test_sharpen () =
  let d = Prob.Dist.of_weights [| 0.6; 0.3; 0.1 |] in
  let same = Q.sharpen d 1.0 in
  Alcotest.(check bool)
    "gamma 1 is the identity" true
    (Prob.Dist.to_array d = Prob.Dist.to_array same);
  let sharp = Q.sharpen d 4.0 in
  Helpers.check_dist_sums_to_one "sharpened renormalizes" sharp;
  Alcotest.(check bool)
    "gamma > 1 raises the top probability" true
    (Prob.Dist.prob sharp 0 > Prob.Dist.prob d 0);
  Alcotest.(check int) "mode unchanged" (Prob.Dist.mode d)
    (Prob.Dist.mode sharp)

(* --- calibration math ------------------------------------------------- *)

let test_ece_mce_hand_computed () =
  (* Two cells land in the [0.5, 1.0] bin of a 2-bin monitor with
     confidence 0.9: one hit, one miss. Bin accuracy 0.5, confidence 0.9
     -> gap 0.4 = ECE = MCE (the other bin is empty and contributes
     nothing). *)
  let m = monitor ~config:{ Q.default_config with bins = 2 } () in
  let d = Prob.Dist.of_weights [| 0.9; 0.1 |] in
  Q.score_cell m ~attr:0 ~truth:0 d;
  Q.score_cell m ~attr:0 ~truth:1 d;
  Helpers.check_float "ECE" 0.4 (Q.ece m);
  Helpers.check_float "MCE" 0.4 (Q.mce m);
  let bins = Q.reliability m in
  Alcotest.(check int) "2 bins" 2 (Array.length bins);
  Alcotest.(check int) "low bin empty" 0 bins.(0).Q.count;
  Alcotest.(check int) "high bin holds both" 2 bins.(1).Q.count;
  Helpers.check_float "bin confidence" 0.9 bins.(1).Q.confidence;
  Helpers.check_float "bin accuracy" 0.5 bins.(1).Q.accuracy

let test_empty_monitor_scores_zero () =
  let m = monitor () in
  let s = Q.scores m in
  Alcotest.(check int) "no cells" 0 s.Q.cells;
  Helpers.check_float "brier 0" 0. s.Q.brier;
  Helpers.check_float "ece 0" 0. (Q.ece m);
  Helpers.check_float "mce 0" 0. (Q.mce m)

let test_confidence_one_lands_in_last_bin () =
  (* A (smoothed) point mass has top-1 confidence ~1.0 — it must land in
     the last bin, not overflow past it. *)
  let m = monitor ~config:{ Q.default_config with bins = 10 } () in
  Q.score_cell m ~attr:0 ~truth:0 (Prob.Dist.point 3 0);
  let bins = Q.reliability m in
  Alcotest.(check int) "last bin count" 1 bins.(9).Q.count;
  Alcotest.(check bool)
    "last bin confidence ~1" true
    (bins.(9).Q.confidence > 0.999);
  Helpers.check_float "last bin accuracy" 1.0 bins.(9).Q.accuracy;
  Alcotest.(check bool)
    "near-calibrated point mass: tiny ECE" true
    (Q.ece m < 1e-3)

let test_endpoint_probabilities () =
  (* truth assigned (almost) no probability: Brier approaches its
     two-class maximum of 2 and the log loss stays finite rather than
     diverging. [Dist.point] keeps a 1e-5 floor on every entry, so the
     maximum is approached, not attained. *)
  let m = monitor () in
  Q.score_cell m ~attr:0 ~truth:1 (Prob.Dist.point 2 0);
  let s = Q.scores m in
  Alcotest.(check bool) "Brier near maximum" true (s.Q.brier > 1.999);
  Alcotest.(check bool) "log loss finite" true (Float.is_finite s.Q.log_loss);
  Helpers.check_float "top-1 accuracy 0" 0. s.Q.top1_accuracy

let test_brier_uniform_sanity () =
  (* A uniform prediction over k values scores 1 - 1/k regardless of the
     truth — the standard multiclass Brier identity. *)
  List.iter
    (fun k ->
      let m = monitor () in
      Q.score_cell m ~attr:0 ~truth:0 (Prob.Dist.uniform k);
      let s = Q.scores m in
      Helpers.check_float
        (Printf.sprintf "uniform-%d Brier" k)
        (1. -. (1. /. float_of_int k))
        s.Q.brier)
    [ 2; 3; 5 ]

let test_score_cell_validates_truth () =
  let m = monitor () in
  Alcotest.check_raises "truth outside support"
    (Invalid_argument "Quality.score_cell: truth outside the distribution")
    (fun () -> Q.score_cell m ~attr:0 ~truth:3 (Prob.Dist.uniform 3))

let test_create_validates_config () =
  let bad config = fun () -> ignore (Q.create ~config ~telemetry:(T.create ()) ()) in
  Alcotest.check_raises "mask_fraction > 1"
    (Invalid_argument "Quality.create: mask_fraction must be in [0, 1]")
    (bad { Q.default_config with mask_fraction = 1.5 });
  Alcotest.check_raises "bins < 1"
    (Invalid_argument "Quality.create: bins must be >= 1")
    (bad { Q.default_config with bins = 0 });
  Alcotest.check_raises "sharpen <= 0"
    (Invalid_argument "Quality.create: sharpen must be positive")
    (bad { Q.default_config with sharpen = 0. })

(* --- shadow evaluator -------------------------------------------------- *)

let eval_tuples n =
  Array.map Relation.Tuple.of_point (Helpers.dependent_points n)

let test_shadow_eval_deterministic () =
  let model = dependent_model () in
  let tuples = eval_tuples 120 in
  let report () =
    let reg = T.create () in
    let m = monitor () in
    let cells = Q.shadow_eval m model tuples in
    (cells, T.Json.to_string (Q.to_json ~registry:reg m))
  in
  let c1, j1 = report () in
  let c2, j2 = report () in
  Alcotest.(check int) "same cell count" c1 c2;
  Alcotest.(check bool) "cells scored" true (c1 > 0);
  Alcotest.(check string) "identical reports" j1 j2

let test_shadow_eval_side_effect_free () =
  let model = dependent_model () in
  let tuples = eval_tuples 60 in
  let before = Array.map Array.copy tuples in
  ignore (Q.shadow_eval (monitor ()) model tuples);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "tuple %d untouched" i)
        true
        (t = before.(i)))
    tuples

let test_shadow_eval_perfect_model_scores_well () =
  (* a1 = a0 is a hard functional dependency: masked a1 cells should be
     recovered with high confidence and accuracy. *)
  let model = dependent_model () in
  let m = monitor () in
  let cells = Q.shadow_eval m model (eval_tuples 200) in
  Alcotest.(check bool) "scored many cells" true (cells > 50);
  let s = Q.scores m in
  Alcotest.(check bool)
    (Printf.sprintf "top-1 accuracy %.3f > 0.6" s.Q.top1_accuracy)
    true (s.Q.top1_accuracy > 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "log loss %.3f finite" s.Q.log_loss)
    true
    (Float.is_finite s.Q.log_loss)

let test_sharpen_injection_worsens_calibration () =
  (* The CI negative test in miniature.  On a perfectly calibrated
     population (confidence 0.7, accuracy 0.7) sharpening is guaranteed
     to worsen the proper scores while leaving top-1 accuracy unchanged:
     the mode never moves, but correct cells gain less log score than
     wrong cells lose. *)
  let d_right = Prob.Dist.of_weights [| 0.7; 0.3 |] in
  let scored gamma =
    let m = monitor () in
    let feed d truth = Q.score_cell m ~attr:0 ~truth (Q.sharpen d gamma) in
    for _ = 1 to 7 do
      feed d_right 0
    done;
    for _ = 1 to 3 do
      feed d_right 1
    done;
    (Q.scores m, Q.ece m)
  in
  let sh, eh = scored 1.0 and si, ei = scored 4.0 in
  Alcotest.(check int) "same cells" sh.Q.cells si.Q.cells;
  Helpers.check_float "same top-1 accuracy" sh.Q.top1_accuracy
    si.Q.top1_accuracy;
  Alcotest.(check bool)
    (Printf.sprintf "log loss worsens (%.4f -> %.4f)" sh.Q.log_loss
       si.Q.log_loss)
    true
    (si.Q.log_loss > sh.Q.log_loss);
  Alcotest.(check bool)
    (Printf.sprintf "Brier worsens (%.4f -> %.4f)" sh.Q.brier si.Q.brier)
    true (si.Q.brier > sh.Q.brier);
  Alcotest.(check bool)
    (Printf.sprintf "ECE worsens (%.4f -> %.4f)" eh ei)
    true (ei > eh);
  (* And the config-level injection is actually wired through
     [shadow_eval]: same cells and accuracy, different proper scores. *)
  let model = dependent_model () in
  let tuples = eval_tuples 200 in
  let honest = monitor () in
  ignore (Q.shadow_eval honest model tuples);
  let inject = monitor ~config:{ Q.default_config with sharpen = 4.0 } () in
  ignore (Q.shadow_eval inject model tuples);
  let sh = Q.scores honest and si = Q.scores inject in
  Alcotest.(check int) "shadow: same cells" sh.Q.cells si.Q.cells;
  Helpers.check_float "shadow: same top-1 accuracy" sh.Q.top1_accuracy
    si.Q.top1_accuracy;
  Alcotest.(check bool) "shadow: scores shift under injection" true
    (sh.Q.log_loss <> si.Q.log_loss)

(* --- drift ------------------------------------------------------------- *)

let test_drift_detects_shift () =
  let model = dependent_model () in
  let m = monitor ~config:{ Q.default_config with drift_threshold = 0.01 } () in
  Q.attach_model m model;
  (* Feed a posterior aggregate concentrated on value 1 for attribute 0 —
     far from the balanced empirical marginal. *)
  for _ = 1 to 40 do
    Q.score_cell m ~attr:0 ~truth:1 (Prob.Dist.of_weights [| 0.02; 0.98 |])
  done;
  match List.find_opt (fun r -> r.Q.attr = 0) (Q.drift_report m) with
  | None -> Alcotest.fail "no drift row for attribute 0"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "JS %.4f above threshold" r.Q.js)
        true r.Q.alert;
      Alcotest.(check bool) "KL finite under smoothing" true
        (Float.is_finite r.Q.kl)

let test_publish_gauges_and_alerts () =
  let model = dependent_model () in
  let sink = T.create () in
  let m =
    Q.create
      ~config:{ Q.default_config with drift_threshold = 0.01 }
      ~telemetry:sink ()
  in
  Q.attach_model m model;
  for _ = 1 to 20 do
    Q.score_cell m ~attr:0 ~truth:1 (Prob.Dist.of_weights [| 0.02; 0.98 |])
  done;
  let registry = T.create () in
  Q.publish ~registry m;
  (match T.gauge_value sink "quality.ece" with
  | Some _ -> ()
  | None -> Alcotest.fail "quality.ece gauge missing");
  Alcotest.(check int) "one alert transition" 1
    (T.counter sink "quality.drift.alerts");
  (* steady state: republishing the same alerts adds nothing *)
  Q.publish ~registry m;
  Alcotest.(check int) "alert counter stable across republish" 1
    (T.counter sink "quality.drift.alerts")

(* --- ensemble health --------------------------------------------------- *)

let test_health_counters () =
  let model = dependent_model () in
  let registry = T.create () in
  let m = monitor () in
  (* Two multi-missing tuples, neither subsuming the other, and a
     single-missing one, which takes the vote and starts no chain. *)
  let workload =
    [ [| None; None; Some 0 |]; [| Some 1; None; None |]; [| Some 1; None; Some 1 |] ]
  in
  let sampler = Mrsl.Gibbs.sampler model in
  ignore
    (Mrsl.Workload.run
       ~config:{ Mrsl.Gibbs.burn_in = 5; samples = 20 }
       ~telemetry:registry ~quality:m (Prob.Rng.create 7) sampler workload);
  let h = Q.health ~registry m in
  Alcotest.(check int) "one chain per distinct multi-missing tuple" 2
    h.Q.chains;
  Alcotest.(check int) "one vote" 1 (T.counter registry "workload.voted");
  Alcotest.(check int) "no checked runs" 0 h.Q.checked_runs;
  Helpers.check_float "nonconverged share 0 when unchecked" 0.
    h.Q.nonconverged_share;
  (* the workload hook fed the drift aggregate *)
  Alcotest.(check bool) "drift rows from estimates" true
    (Q.drift_report m <> [])

let test_observe_voters_strata () =
  let m = monitor () in
  let model = dependent_model () in
  let tup = [| None; Some 0; Some 0 |] in
  let voters = Mrsl.Infer_single.voters model tup 0 in
  Alcotest.(check bool) "some voters" true (voters <> []);
  Q.observe_voters m voters;
  Q.observe_voters m voters;
  let h = Q.health ~registry:(T.create ()) m in
  Alcotest.(check int) "two tasks" 2 h.Q.tasks;
  Helpers.check_float "voters per task"
    (float_of_int (List.length voters))
    h.Q.voters_per_task;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 h.Q.strata in
  Alcotest.(check int) "strata cover all voters"
    (2 * List.length voters)
    total

(* --- degradation-rung provenance -------------------------------------- *)

let test_explain_rung_voters () =
  let model = dependent_model () in
  let e = Mrsl.Infer_single.explain model [| None; Some 0; Some 0 |] 0 in
  Alcotest.(check string) "normal path" "voters"
    (Mrsl.Infer_single.rung_name e.Mrsl.Infer_single.rung);
  Alcotest.(check bool) "has contributions" true
    (e.Mrsl.Infer_single.contributions <> [])

let test_explain_rung_degraded () =
  (* A forced voter drop sends explain down the marginal-prior rung:
     contributions are empty and the estimate equals the root CPD. *)
  let model = dependent_model () in
  let tup = [| None; Some 0; Some 0 |] in
  Mrsl.Fault_inject.with_config
    { Mrsl.Fault_inject.disabled with seed = 1; voter_drop_rate = 1.0 }
    (fun () ->
      let e = Mrsl.Infer_single.explain model tup 0 in
      Alcotest.(check string) "degraded rung" "marginal-prior"
        (Mrsl.Infer_single.rung_name e.Mrsl.Infer_single.rung);
      Alcotest.(check (list (pair string (float 1e-9))))
        "no contributions when degraded" []
        (List.map
           (fun (r, s) -> (Format.asprintf "%a" Mrsl.Meta_rule.pp r, s))
           e.Mrsl.Infer_single.contributions);
      (match Mrsl.Infer_single.marginal_prior model 0 with
      | Some prior ->
          Alcotest.(check bool) "estimate is the root CPD" true
            (Prob.Dist.to_array e.Mrsl.Infer_single.estimate
            = Prob.Dist.to_array prior)
      | None -> Alcotest.fail "root CPD missing");
      (* explain records nothing: inference-side telemetry untouched *)
      let m = monitor () in
      Q.observe_rung m e.Mrsl.Infer_single.rung;
      let h = Q.health ~registry:(T.create ()) m in
      Helpers.check_float "marginal rung share" 1.0
        h.Q.degrade_marginal_share)

(* --- the acceptance property: monitoring is observation-only ----------- *)

let test_monitored_run_bit_identical () =
  let model = dependent_model () in
  let workload =
    [
      [| None; Some 0; Some 0 |];
      [| Some 1; None; Some 1 |];
      [| Some 0; Some 0; None |];
      [| None; None; Some 1 |];
      [| Some 1; Some 1; None |];
    ]
  in
  let config = { Mrsl.Gibbs.burn_in = 10; samples = 40 } in
  let snapshot (r : Mrsl.Workload.result) =
    List.map
      (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
        ( tup,
          est.Mrsl.Gibbs.missing,
          Prob.Dist.to_array est.Mrsl.Gibbs.joint,
          est.Mrsl.Gibbs.samples_used ))
      r.Mrsl.Workload.estimates
  in
  let run ?quality domains =
    snapshot
      (Mrsl.Workload.run_contained ~config ~domains ~telemetry:(T.create ())
         ?quality ~seed:2011 model workload)
        .result
  in
  let bare = run 4 in
  let m = monitor () in
  ignore (Q.shadow_eval m model (eval_tuples 50));
  let watched = run ~quality:m 4 in
  Alcotest.(check bool)
    "monitored 4-domain run bit-identical to unmonitored" true
    (bare = watched);
  (* and identical across domain counts while monitored *)
  let m1 = monitor () in
  Alcotest.(check bool)
    "monitored 1-domain run bit-identical too" true
    (run ~quality:m1 1 = bare)

(* --- epsilon-smoothed KL (divergence satellite) ------------------------ *)

let test_kl_epsilon () =
  let p = Prob.Dist.of_weights [| 0.5; 0.5; 0. |] in
  let q = Prob.Dist.of_weights [| 0.5; 0.; 0.5 |] in
  Alcotest.(check bool)
    "unsmoothed KL infinite under support mismatch" true
    (Prob.Divergence.kl p q = Float.infinity);
  let smoothed = Prob.Divergence.kl ~epsilon:1e-6 p q in
  Alcotest.(check bool) "smoothed KL finite" true (Float.is_finite smoothed);
  Alcotest.(check bool) "smoothed KL positive" true (smoothed > 0.);
  Helpers.check_float ~eps:1e-12 "KL(p, p) = 0 smoothed" 0.
    (Prob.Divergence.kl ~epsilon:1e-6 p p);
  (* smoothing barely perturbs an already-overlapping pair *)
  let a = Prob.Dist.of_weights [| 0.7; 0.3 |]
  and b = Prob.Dist.of_weights [| 0.4; 0.6 |] in
  Helpers.check_float ~eps:1e-4 "epsilon-smoothed close to exact"
    (Prob.Divergence.kl a b)
    (Prob.Divergence.kl ~epsilon:1e-9 a b);
  Alcotest.check_raises "epsilon must be positive"
    (Invalid_argument "Divergence.kl: epsilon must be positive") (fun () ->
      ignore (Prob.Divergence.kl ~epsilon:0. a b))

let suite =
  [
    ("should_mask is deterministic", `Quick, test_should_mask_deterministic);
    ("should_mask respects the fraction", `Quick, test_should_mask_fraction);
    ("sharpen temperature scaling", `Quick, test_sharpen);
    ("ECE/MCE hand-computed", `Quick, test_ece_mce_hand_computed);
    ("empty monitor scores zero", `Quick, test_empty_monitor_scores_zero);
    ( "confidence 1.0 lands in last bin",
      `Quick,
      test_confidence_one_lands_in_last_bin );
    ("p=0 / p=1 endpoints", `Quick, test_endpoint_probabilities);
    ("Brier uniform identity", `Quick, test_brier_uniform_sanity);
    ("score_cell validates truth", `Quick, test_score_cell_validates_truth);
    ("create validates config", `Quick, test_create_validates_config);
    ("shadow eval deterministic", `Quick, test_shadow_eval_deterministic);
    ("shadow eval side-effect free", `Quick, test_shadow_eval_side_effect_free);
    ( "shadow eval scores a good model well",
      `Quick,
      test_shadow_eval_perfect_model_scores_well );
    ( "sharpen injection worsens calibration",
      `Quick,
      test_sharpen_injection_worsens_calibration );
    ("drift detector alerts on shift", `Quick, test_drift_detects_shift);
    ("publish gauges and alert transitions", `Quick,
      test_publish_gauges_and_alerts );
    ("health counters", `Quick, test_health_counters);
    ("voter strata accounting", `Quick, test_observe_voters_strata);
    ("explain reports voters rung", `Quick, test_explain_rung_voters);
    ("explain reports degraded rung", `Quick, test_explain_rung_degraded);
    ( "monitored run bit-identical to unmonitored",
      `Quick,
      test_monitored_run_bit_identical );
    ("epsilon-smoothed KL", `Quick, test_kl_epsilon);
  ]
