(* Tests for the prob substrate: Rng, Dist, Divergence, Stats, Dirichlet. *)

open Helpers

let test_rng_deterministic () =
  let a = Prob.Rng.create 7 and b = Prob.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Prob.Rng.create 1 and b = Prob.Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" false
    (Prob.Rng.bits64 a = Prob.Rng.bits64 b)

let test_rng_split_independent () =
  let a = Prob.Rng.create 7 in
  let b = Prob.Rng.split a in
  Alcotest.(check bool) "split diverges from parent" false
    (Prob.Rng.bits64 a = Prob.Rng.bits64 b)

let test_rng_copy () =
  let a = Prob.Rng.create 9 in
  ignore (Prob.Rng.bits64 a);
  let b = Prob.Rng.copy a in
  Alcotest.(check int64) "copy preserves state" (Prob.Rng.bits64 a)
    (Prob.Rng.bits64 b)

let test_rng_int_range () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Prob.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_uniformity () =
  let r = rng () in
  let n = 60_000 and k = 6 in
  let counts = Array.make k 0 in
  for _ = 1 to n do
    let v = Prob.Rng.int r k in
    counts.(v) <- counts.(v) + 1
  done;
  (* Chi-square with 5 dof; 99.9th percentile ≈ 20.5. *)
  let expected = float_of_int n /. float_of_int k in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  if chi2 > 25. then Alcotest.failf "chi-square too large: %.2f" chi2

let test_rng_int_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prob.Rng.int (rng ()) 0))

let test_rng_float_range () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Prob.Rng.float r in
    if v < 0. || v >= 1. then Alcotest.failf "float out of range: %f" v
  done

let test_rng_float_mean () =
  let r = rng () in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prob.Rng.float r
  done;
  check_float ~eps:0.01 "mean of U(0,1)" 0.5 (!sum /. float_of_int n)

let test_shuffle_is_permutation () =
  let r = rng () in
  let a = Array.init 50 Fun.id in
  Prob.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let r = rng () in
  for _ = 1 to 100 do
    let k = 5 and n = 12 in
    let s = Prob.Rng.sample_without_replacement r k n in
    Alcotest.(check int) "size" k (List.length s);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq Int.compare s = s);
    List.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < n)) s
  done

let test_sample_without_replacement_edge () =
  let r = rng () in
  Alcotest.(check (list int)) "k = n" [ 0; 1; 2 ]
    (Prob.Rng.sample_without_replacement r 3 3);
  Alcotest.(check (list int)) "k = 0" []
    (Prob.Rng.sample_without_replacement r 0 5)

let test_gamma_mean () =
  let r = rng () in
  let shape = 3.0 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prob.Rng.gamma r shape
  done;
  (* Gamma(3,1) has mean 3, sd ≈ 1.73; mean of 20k draws within ~0.05. *)
  check_float ~eps:0.1 "gamma mean" shape (!sum /. float_of_int n)

let test_gamma_small_shape () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Prob.Rng.gamma r 0.3 in
    if x < 0. || not (Float.is_finite x) then
      Alcotest.failf "bad gamma draw: %f" x
  done

let test_exponential_mean () =
  let r = rng () in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prob.Rng.exponential r 2.0
  done;
  check_float ~eps:0.02 "exp(2) mean" 0.5 (!sum /. float_of_int n)

(* Dist *)

let test_of_weights_normalizes () =
  let d = Prob.Dist.of_weights [| 1.; 3. |] in
  check_float "first" 0.25 (Prob.Dist.prob d 0);
  check_float "second" 0.75 (Prob.Dist.prob d 1)

let test_of_weights_rejects () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Dist.of_weights: empty weight array") (fun () ->
      ignore (Prob.Dist.of_weights [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Dist.of_weights: all weights are zero") (fun () ->
      ignore (Prob.Dist.of_weights [| 0.; 0. |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.of_weights: weights must be finite and non-negative")
    (fun () -> ignore (Prob.Dist.of_weights [| 1.; -1. |]))

let test_smooth_fills_missing_mass () =
  (* Partial mass 0.5 on the first of two values: the leftover 0.5 is
     split equally, giving [0.75; 0.25]. *)
  let d = Prob.Dist.smooth [| 0.5; 0. |] in
  check_float "first" 0.75 (Prob.Dist.prob d 0);
  check_float "second" 0.25 (Prob.Dist.prob d 1)

let test_smooth_positive_and_normal () =
  let d = Prob.Dist.smooth [| 1.; 0.; 0. |] in
  check_dist_positive "smooth positive" d;
  check_dist_sums_to_one "smooth sums to 1" d;
  Alcotest.(check bool) "floor applied" true
    (Prob.Dist.prob d 1 >= Prob.Dist.smoothing_floor /. 2.)

let test_smooth_all_zero_is_uniform () =
  let d = Prob.Dist.smooth [| 0.; 0.; 0.; 0. |] in
  Array.iter (fun p -> check_float "uniform" 0.25 p) (Prob.Dist.to_array d)

let test_uniform () =
  let d = Prob.Dist.uniform 5 in
  Array.iter (fun p -> check_float "uniform 5" 0.2 p) (Prob.Dist.to_array d)

let test_point_dist () =
  let d = Prob.Dist.point 4 2 in
  Alcotest.(check int) "mode" 2 (Prob.Dist.mode d);
  check_dist_positive "point positive" d;
  check_dist_sums_to_one "point sums" d

let test_sample_distribution () =
  let r = rng () in
  let d = Prob.Dist.of_weights [| 0.1; 0.2; 0.7 |] in
  let n = 30_000 in
  let counts = Array.make 3 0 in
  for _ = 1 to n do
    let v = Prob.Dist.sample r d in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_float ~eps:0.02 "sample frequency"
        (Prob.Dist.prob d i)
        (float_of_int c /. float_of_int n))
    counts

(* [Dist.sample] was once this recursive inverse-CDF walk; the loop that
   replaced it must return the same index for every distribution and RNG
   state. *)
let recursive_sample rng (d : Prob.Dist.t) =
  let u = Prob.Rng.float rng in
  let d = (d :> float array) in
  let n = Array.length d in
  let rec walk i acc =
    if i = n - 1 then i
    else
      let acc = acc +. d.(i) in
      if u < acc then i else walk (i + 1) acc
  in
  walk 0 0.

let test_sample_edge_cases () =
  let r = rng () in
  (* [probs] and [expected] see the next draw u, known in advance (from a
     copy of the generator) so cumulative sums can be made to hit it. *)
  let check msg probs expected =
    let u = Prob.Rng.float (Prob.Rng.copy r) in
    let d = Prob.Dist.of_probs (probs u) in
    Alcotest.(check int)
      (msg ^ " (reference)")
      (expected u)
      (recursive_sample (Prob.Rng.copy r) d);
    Alcotest.(check int) msg (expected u) (Prob.Dist.sample r d)
  in
  for _ = 1 to 50 do
    check "n = 1" (fun _ -> [| 1. |]) (fun _ -> 0);
    (* Cumulative mass equal to u is not enough: the walk moves on. *)
    check "boundary, then a later index"
      (fun u -> [| u; (1. -. u) /. 2.; (1. -. u) /. 2. |])
      (fun u -> if u < u +. ((1. -. u) /. 2.) then 1 else 2);
    check "boundary before the last index"
      (fun u -> [| u /. 2.; u /. 2.; 1. -. u |])
      (fun _ -> 2);
    (* The last index is taken without comparing u to the total. *)
    check "last index" (fun _ -> [| 0.; 0.; 1. |]) (fun _ -> 2);
    check "last index below u"
      (fun u -> [| u /. 4.; u /. 4.; 1. -. (u /. 2.) |])
      (fun _ -> 2)
  done

let test_of_probs () =
  let p = [| 0.25; 0.5; 0.25 |] in
  Alcotest.(check bool) "adopted unchanged" true
    ((Prob.Dist.of_probs p :> float array) = p);
  List.iter
    (fun (msg, bad) ->
      match Prob.Dist.of_probs bad with
      | _ -> Alcotest.failf "%s: accepted" msg
      | exception Invalid_argument _ -> ())
    [
      ("sum above 1", [| 0.5; 0.6 |]);
      ("sum below 1", [| 0.5; 0.4 |]);
      ("negative", [| -0.1; 1.1 |]);
      ("nan", [| Float.nan; 1. |]);
      ("empty", [||]);
    ]

let test_mode_tie_break () =
  let d = Prob.Dist.of_weights [| 0.4; 0.4; 0.2 |] in
  Alcotest.(check int) "ties to smaller index" 0 (Prob.Dist.mode d)

let test_average () =
  let a = Prob.Dist.of_weights [| 1.; 0.; 1. |] in
  let b = Prob.Dist.of_weights [| 0.; 1.; 1. |] in
  let avg = Prob.Dist.average [ a; b ] in
  check_float "avg position 0" 0.25 (Prob.Dist.prob avg 0);
  check_float "avg position 1" 0.25 (Prob.Dist.prob avg 1);
  check_float "avg position 2" 0.5 (Prob.Dist.prob avg 2)

let test_weighted_average () =
  let a = Prob.Dist.of_weights [| 1.; 0. |] in
  let b = Prob.Dist.of_weights [| 0.; 1. |] in
  let w = Prob.Dist.weighted_average [ (3., a); (1., b) ] in
  check_float "weighted first" 0.75 (Prob.Dist.prob w 0);
  let zero = Prob.Dist.weighted_average [ (0., a); (0., b) ] in
  check_float "zero weights fall back to average" 0.5 (Prob.Dist.prob zero 0)

let test_average_size_mismatch () =
  let a = Prob.Dist.uniform 2 and b = Prob.Dist.uniform 3 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Dist.average: size mismatch") (fun () ->
      ignore (Prob.Dist.average [ a; b ]))

let test_entropy () =
  check_float "uniform 2 entropy" (log 2.)
    (Prob.Dist.entropy (Prob.Dist.uniform 2));
  let peaked = Prob.Dist.of_weights [| 1.; 0. |] in
  check_float "point entropy" 0. (Prob.Dist.entropy peaked)

(* Divergence *)

let test_kl_self_zero () =
  let d = Prob.Dist.of_weights [| 0.2; 0.3; 0.5 |] in
  check_float "KL(d,d)" 0. (Prob.Divergence.kl d d)

let test_kl_known_value () =
  let p = Prob.Dist.of_weights [| 0.5; 0.5 |] in
  let q = Prob.Dist.of_weights [| 0.25; 0.75 |] in
  let expected = (0.5 *. log (0.5 /. 0.25)) +. (0.5 *. log (0.5 /. 0.75)) in
  check_float "KL hand value" expected (Prob.Divergence.kl p q)

let test_kl_infinite_on_zero_support () =
  let p = Prob.Dist.of_weights [| 0.5; 0.5 |] in
  let q = Prob.Dist.of_weights [| 1.0; 0.0 |] in
  Alcotest.(check bool) "KL infinite" true
    (Prob.Divergence.kl p q = infinity)

let test_tv_bounds_and_value () =
  let p = Prob.Dist.of_weights [| 1.; 0. |] in
  let q = Prob.Dist.of_weights [| 0.; 1. |] in
  check_float "TV max" 1. (Prob.Divergence.total_variation p q);
  check_float "TV self" 0. (Prob.Divergence.total_variation p p)

let test_hellinger () =
  let p = Prob.Dist.of_weights [| 1.; 0. |] in
  let q = Prob.Dist.of_weights [| 0.; 1. |] in
  check_float "Hellinger max" 1. (Prob.Divergence.hellinger p q);
  check_float "Hellinger self" 0. (Prob.Divergence.hellinger p p)

let test_js_symmetric_bounded () =
  let p = Prob.Dist.of_weights [| 0.9; 0.1 |] in
  let q = Prob.Dist.of_weights [| 0.2; 0.8 |] in
  check_float "JS symmetric" (Prob.Divergence.jensen_shannon p q)
    (Prob.Divergence.jensen_shannon q p);
  Alcotest.(check bool) "JS bounded by log 2" true
    (Prob.Divergence.jensen_shannon p q <= log 2. +. 1e-9)

(* Regression: the previous implementation rebuilt the mixture through
   [Dist.of_weights], whose renormalization perturbed m = (p+q)/2 enough
   that js p p was a small positive number instead of 0. The divergence
   is now computed against the exact mixture. *)
let test_js_self_exactly_zero () =
  let dists =
    [
      Prob.Dist.uniform 4;
      Prob.Dist.of_weights [| 0.9; 0.1 |];
      Prob.Dist.of_weights [| 0.2; 0.3; 0.5 |];
      Prob.Dist.smooth [| 1.; 0.; 0.; 0.; 0. |];
      Prob.Dist.of_weights [| 1e-9; 1.0; 1e-12; 0.3 |];
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        "js p p is exactly 0" 0.
        (Prob.Divergence.jensen_shannon p p))
    dists

let test_js_range_adversarial () =
  let rng = Helpers.rng () in
  for _ = 1 to 200 do
    let n = 1 + Prob.Rng.int rng 6 in
    (* Adversarial weights: many near-zero entries, occasional spikes, so
       the mixture has components at very different scales. *)
    let weights () =
      Array.init n (fun _ ->
          match Prob.Rng.int rng 3 with
          | 0 -> 0.
          | 1 -> Prob.Rng.float rng *. 1e-9
          | _ -> Prob.Rng.float rng)
    in
    let wp = weights () and wq = weights () in
    if Array.exists (fun w -> w > 0.) wp && Array.exists (fun w -> w > 0.) wq
    then begin
      let p = Prob.Dist.of_weights wp and q = Prob.Dist.of_weights wq in
      let js = Prob.Divergence.jensen_shannon p q in
      Alcotest.(check bool) "0 <= js" true (js >= 0.);
      Alcotest.(check bool) "js <= ln 2" true (js <= log 2.)
    end
  done;
  (* Disjoint supports attain the upper bound exactly. *)
  let p = Prob.Dist.of_weights [| 1.; 0. |] in
  let q = Prob.Dist.of_weights [| 0.; 1. |] in
  check_float "js disjoint = ln 2" (log 2.)
    (Prob.Divergence.jensen_shannon p q)

let test_divergence_size_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Divergence.kl: size mismatch") (fun () ->
      ignore (Prob.Divergence.kl (Prob.Dist.uniform 2) (Prob.Dist.uniform 3)))

(* Stats *)

let test_mean_var () =
  check_float "mean" 2. (Prob.Stats.mean [ 1.; 2.; 3. ]);
  check_float "variance" 1. (Prob.Stats.variance [ 1.; 2.; 3. ]);
  check_float "stddev" 1. (Prob.Stats.stddev [ 1.; 2.; 3. ]);
  check_float "empty mean" 0. (Prob.Stats.mean []);
  check_float "singleton variance" 0. (Prob.Stats.variance [ 5. ])

let test_median_percentile () =
  check_float "median odd" 2. (Prob.Stats.median [ 3.; 1.; 2. ]);
  check_float "median even" 2.5 (Prob.Stats.median [ 4.; 1.; 2.; 3. ]);
  check_float "p0" 1. (Prob.Stats.percentile 0. [ 3.; 1.; 2. ]);
  check_float "p100" 3. (Prob.Stats.percentile 100. [ 3.; 1.; 2. ]);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Prob.Stats.percentile 50. []))

let test_linear_fit () =
  let slope, intercept =
    Prob.Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ]
  in
  check_float "slope" 2. slope;
  check_float "intercept" 1. intercept

let test_mean_ci95 () =
  let mean, half = Prob.Stats.mean_ci95 [ 1.; 2.; 3. ] in
  check_float "ci mean" 2. mean;
  Alcotest.(check bool) "halfwidth positive" true (half > 0.)

(* Dirichlet *)

let test_dirichlet_valid () =
  let r = rng () in
  for _ = 1 to 200 do
    let d = Prob.Dirichlet.sample r ~alpha:0.5 4 in
    check_dist_sums_to_one "dirichlet sums" d
  done

let test_dirichlet_mean () =
  let r = rng () in
  let n = 5000 in
  let acc = Array.make 3 0. in
  for _ = 1 to n do
    let d = Prob.Dirichlet.sample_asymmetric r [| 1.; 2.; 3. |] in
    Array.iteri (fun i _ -> acc.(i) <- acc.(i) +. Prob.Dist.prob d i) acc
  done;
  (* E[Dirichlet(1,2,3)] = (1/6, 2/6, 3/6). *)
  check_float ~eps:0.02 "mean 0" (1. /. 6.) (acc.(0) /. float_of_int n);
  check_float ~eps:0.02 "mean 1" (2. /. 6.) (acc.(1) /. float_of_int n);
  check_float ~eps:0.02 "mean 2" (3. /. 6.) (acc.(2) /. float_of_int n)

let test_dirichlet_rejects () =
  Alcotest.check_raises "non-positive alpha"
    (Invalid_argument "Dirichlet.sample_asymmetric: concentrations must be > 0")
    (fun () -> ignore (Prob.Dirichlet.sample (rng ()) ~alpha:0. 3))

(* Property-based tests *)

let dist_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8) (float_range 0.0 10.0) >|= fun ws ->
    let arr = Array.of_list ws in
    if Array.for_all (fun w -> w <= 0.) arr then arr.(0) <- 1.;
    Prob.Dist.of_weights arr)

let prop_dist_normalized =
  qcheck "of_weights result sums to 1" dist_gen (fun d ->
      float_close ~eps:1e-9
        (Array.fold_left ( +. ) 0. (Prob.Dist.to_array d))
        1.0)

let prop_sample_matches_walk =
  qcheck "sample = recursive walk"
    QCheck2.Gen.(tup2 dist_gen int)
    (fun (d, seed) ->
      let r = Prob.Rng.create seed and r_ref = Prob.Rng.create seed in
      List.for_all
        (fun _ -> Prob.Dist.sample r d = recursive_sample r_ref d)
        (List.init 20 Fun.id))

let prop_kl_nonneg =
  qcheck "KL is non-negative"
    QCheck2.Gen.(tup2 dist_gen dist_gen)
    (fun (p, q) ->
      Prob.Dist.size p <> Prob.Dist.size q
      || Prob.Divergence.kl p q >= -1e-12)

let prop_tv_bounded =
  qcheck "TV within [0,1]"
    QCheck2.Gen.(tup2 dist_gen dist_gen)
    (fun (p, q) ->
      Prob.Dist.size p <> Prob.Dist.size q
      ||
      let tv = Prob.Divergence.total_variation p q in
      tv >= -1e-12 && tv <= 1. +. 1e-12)

let prop_smooth_positive =
  qcheck "smooth yields positive distributions"
    QCheck2.Gen.(list_size (int_range 1 8) (float_range 0.0 1.0))
    (fun ws ->
      let arr = Array.of_list ws in
      let total = Array.fold_left ( +. ) 0. arr in
      let arr = if total > 1. then Array.map (fun w -> w /. total) arr else arr in
      let d = Prob.Dist.smooth arr in
      Array.for_all (fun p -> p > 0.) (Prob.Dist.to_array d))

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int uniformity", `Quick, test_rng_int_uniformity);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("shuffle permutation", `Quick, test_shuffle_is_permutation);
    ("sample without replacement", `Quick, test_sample_without_replacement);
    ("sample without replacement edges", `Quick,
     test_sample_without_replacement_edge);
    ("gamma mean", `Quick, test_gamma_mean);
    ("gamma small shape", `Quick, test_gamma_small_shape);
    ("exponential mean", `Quick, test_exponential_mean);
    ("of_weights normalizes", `Quick, test_of_weights_normalizes);
    ("of_weights rejects", `Quick, test_of_weights_rejects);
    ("smooth fills missing mass", `Quick, test_smooth_fills_missing_mass);
    ("smooth positive and normalized", `Quick, test_smooth_positive_and_normal);
    ("smooth of zeros is uniform", `Quick, test_smooth_all_zero_is_uniform);
    ("uniform", `Quick, test_uniform);
    ("point distribution", `Quick, test_point_dist);
    ("sample matches distribution", `Quick, test_sample_distribution);
    ("sample edge cases = recursive walk", `Quick, test_sample_edge_cases);
    ("of_probs adopts or rejects", `Quick, test_of_probs);
    ("mode tie-break", `Quick, test_mode_tie_break);
    ("average", `Quick, test_average);
    ("weighted average", `Quick, test_weighted_average);
    ("average size mismatch", `Quick, test_average_size_mismatch);
    ("entropy", `Quick, test_entropy);
    ("KL self", `Quick, test_kl_self_zero);
    ("KL hand value", `Quick, test_kl_known_value);
    ("KL infinite on zero support", `Quick, test_kl_infinite_on_zero_support);
    ("TV bounds", `Quick, test_tv_bounds_and_value);
    ("Hellinger", `Quick, test_hellinger);
    ("JS symmetric/bounded", `Quick, test_js_symmetric_bounded);
    ("JS self is exactly zero", `Quick, test_js_self_exactly_zero);
    ("JS range adversarial", `Quick, test_js_range_adversarial);
    ("divergence size mismatch", `Quick, test_divergence_size_mismatch);
    ("mean/variance", `Quick, test_mean_var);
    ("median/percentile", `Quick, test_median_percentile);
    ("linear fit", `Quick, test_linear_fit);
    ("mean ci95", `Quick, test_mean_ci95);
    ("dirichlet valid", `Quick, test_dirichlet_valid);
    ("dirichlet mean", `Quick, test_dirichlet_mean);
    ("dirichlet rejects", `Quick, test_dirichlet_rejects);
    prop_dist_normalized;
    prop_sample_matches_walk;
    prop_kl_nonneg;
    prop_tv_bounded;
    prop_smooth_positive;
  ]
