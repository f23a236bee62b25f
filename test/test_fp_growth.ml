(* FP-Growth tests: exact equivalence with Apriori (Section III's
   miner-independence claim, made executable). *)

open Helpers

let canon result =
  List.sort compare
    (List.map
       (fun (s, supp) -> (Mining.Itemset.to_list s, Float.round (supp *. 1e9)))
       (Mining.Apriori.frequent result))

let test_equivalence_small () =
  let points =
    [|
      [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 0 |]; [| 1; 1; 1 |];
      [| 1; 1; 0 |]; [| 0; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 1; 1 |];
    |]
  in
  let config : Mining.Apriori.config = { threshold = 0.1; max_itemsets = 10_000 } in
  let a = Mining.Apriori.mine ~config ~cards:[| 2; 2; 2 |] points in
  let f = Mining.Fp_growth.mine ~config ~cards:[| 2; 2; 2 |] points in
  Alcotest.(check bool) "identical frequent sets" true (canon a = canon f)

let test_equivalence_fig1 () =
  let points = Relation.Instance.complete_part (fig1_relation ()) in
  let config : Mining.Apriori.config = { threshold = 0.05; max_itemsets = 10_000 } in
  let a = Mining.Apriori.mine ~config ~cards:[| 3; 3; 2; 2 |] points in
  let f = Mining.Fp_growth.mine ~config ~cards:[| 3; 3; 2; 2 |] points in
  Alcotest.(check int) "same count" (Mining.Apriori.count a)
    (Mining.Apriori.count f);
  Alcotest.(check bool) "identical frequent sets" true (canon a = canon f)

let test_empty_data () =
  let f = Mining.Fp_growth.mine ~cards:[| 2 |] [||] in
  Alcotest.(check int) "no itemsets" 0 (Mining.Apriori.count f)

let test_rejects () =
  Alcotest.check_raises "threshold"
    (Invalid_argument "Fp_growth.mine: threshold must be in [0, 1]") (fun () ->
      ignore
        (Mining.Fp_growth.mine
           ~config:{ threshold = -1.; max_itemsets = 10 }
           ~cards:[| 2 |] [| [| 0 |] |]))

let test_model_learning_with_either_miner () =
  (* An MRSL learned from FP-Growth supports must equal one learned from
     Apriori (same supports ⇒ same meta-rules). We check by swapping the
     mining result into the rule pipeline directly. *)
  let points = dependent_points 200 in
  let config : Mining.Apriori.config = { threshold = 0.05; max_itemsets = 10_000 } in
  let a = Mining.Apriori.mine ~config ~cards:[| 2; 2; 2 |] points in
  let f = Mining.Fp_growth.mine ~config ~cards:[| 2; 2; 2 |] points in
  List.iter
    (fun attr ->
      let rules_a = Mining.Assoc_rule.mine_for_attr a attr in
      let rules_f = Mining.Assoc_rule.mine_for_attr f attr in
      Alcotest.(check int) "same rule count" (List.length rules_a)
        (List.length rules_f))
    [ 0; 1; 2 ]

let prop_equivalence_random =
  qcheck ~count:40 "FP-Growth ≡ Apriori on random data"
    QCheck2.Gen.(tup2 (int_range 0 100_000) (int_range 10 60))
    (fun (seed, n) ->
      let r = Prob.Rng.create seed in
      let cards = [| 2; 3; 2; 2 |] in
      let points =
        Array.init n (fun _ ->
            Array.init 4 (fun a -> Prob.Rng.int r cards.(a)))
      in
      let config : Mining.Apriori.config =
        { threshold = 0.1 +. (0.2 *. Prob.Rng.float r); max_itemsets = 10_000 }
      in
      let a = Mining.Apriori.mine ~config ~cards points in
      let f = Mining.Fp_growth.mine ~config ~cards points in
      canon a = canon f)

let test_low_support_deep_patterns () =
  (* Perfectly correlated data produces maximal-depth patterns; both miners
     must find all of them. *)
  let points = Array.init 100 (fun i -> Array.make 5 (i mod 2)) in
  let config : Mining.Apriori.config = { threshold = 0.3; max_itemsets = 100_000 } in
  let cards = Array.make 5 2 in
  let a = Mining.Apriori.mine ~config ~cards points in
  let f = Mining.Fp_growth.mine ~config ~cards points in
  Alcotest.(check bool) "deep patterns equal" true (canon a = canon f);
  Alcotest.(check int) "reaches size 5" 5 (Mining.Apriori.rounds f)

let test_cap_semantics () =
  let r = rng () in
  let points =
    Array.init 300 (fun _ -> Array.init 6 (fun _ -> Prob.Rng.int r 2))
  in
  let cards = Array.make 6 2 in
  let config : Mining.Apriori.config = { threshold = 0.001; max_itemsets = 10 } in
  let f = Mining.Fp_growth.mine ~config ~cards points in
  Alcotest.(check bool) "truncated flagged" true (Mining.Apriori.truncated f);
  let free =
    Mining.Fp_growth.mine
      ~config:{ threshold = 0.001; max_itemsets = 1_000_000 }
      ~cards points
  in
  Alcotest.(check bool) "cap reduces output" true
    (Mining.Apriori.count f < Mining.Apriori.count free)

(* Exact agreement, the cap included: the same itemsets with bit-equal
   supports, the same [rounds] and the same [truncated]. *)
let exact result =
  List.sort compare
    (List.map
       (fun (s, supp) -> (Mining.Itemset.to_list s, supp))
       (Mining.Apriori.frequent result))

let check_same_result msg a f =
  Alcotest.(check bool) (msg ^ ": itemsets and supports") true
    (exact a = exact f);
  Alcotest.(check int) (msg ^ ": rounds") (Mining.Apriori.rounds a)
    (Mining.Apriori.rounds f);
  Alcotest.(check bool) (msg ^ ": truncated") (Mining.Apriori.truncated a)
    (Mining.Apriori.truncated f)

let test_capped_catalog () =
  (* The paper's regime: 5000 rows, θ from 0.005 to 0.05, and caps that
     fire at level 1, mid-way or not at all. *)
  List.iter
    (fun id ->
      let topology = (Bayesnet.Catalog.find id).topology in
      let r = rng () in
      let net = Bayesnet.Network.generate r topology in
      let points =
        Array.init 5000 (fun _ -> Bayesnet.Network.sample_point r net)
      in
      let cards = Bayesnet.Topology.cardinalities topology in
      List.iter
        (fun threshold ->
          List.iter
            (fun max_itemsets ->
              let config : Mining.Apriori.config =
                { threshold; max_itemsets }
              in
              check_same_result
                (Printf.sprintf "%s θ=%g cap=%d" id threshold max_itemsets)
                (Mining.Apriori.mine ~config ~cards points)
                (Mining.Fp_growth.mine ~config ~cards points))
            [ 100; 1000 ])
        [ 0.005; 0.01; 0.05 ])
    [ "BN7"; "BN10" ]

(* Rows copied from a few prototypes with noise, so deep itemsets are
   frequent and a small cap can fire at any level. *)
let prop_capped_random =
  qcheck ~count:150 "Apriori ≡ FP-Growth ≡ brute force under small caps"
    QCheck2.Gen.(
      tup4 (int_range 0 1_000_000) (int_range 1 8) (int_range 5 80)
        (int_range 1 40))
    (fun (seed, arity, n, max_itemsets) ->
      let r = Prob.Rng.create seed in
      let cards = Array.init arity (fun _ -> 2 + Prob.Rng.int r 5) in
      let prototypes =
        Array.init 3 (fun _ -> Array.map (fun c -> Prob.Rng.int r c) cards)
      in
      let points =
        Array.init n (fun _ ->
            let proto = prototypes.(Prob.Rng.int r 3) in
            Array.mapi
              (fun a c ->
                if Prob.Rng.float r < 0.75 then proto.(a) else Prob.Rng.int r c)
              cards)
      in
      let config : Mining.Apriori.config =
        { threshold = 0.02 +. (0.3 *. Prob.Rng.float r); max_itemsets }
      in
      let a = Mining.Apriori.mine ~config ~cards points in
      let f = Mining.Fp_growth.mine ~config ~cards points in
      exact a = exact f
      && Mining.Apriori.rounds a = Mining.Apriori.rounds f
      && Mining.Apriori.truncated a = Mining.Apriori.truncated f
      && List.for_all
           (fun (s, supp) -> brute_support points s = supp)
           (Mining.Apriori.frequent a))

let suite =
  [
    ("equivalence on small data", `Quick, test_equivalence_small);
    ("equivalence on Fig 1", `Quick, test_equivalence_fig1);
    ("empty data", `Quick, test_empty_data);
    ("input validation", `Quick, test_rejects);
    ("rule pipeline miner-independent", `Quick,
     test_model_learning_with_either_miner);
    prop_equivalence_random;
    ("deep correlated patterns", `Quick, test_low_support_deep_patterns);
    ("cap semantics", `Quick, test_cap_semantics);
    ("capped catalog networks: Apriori ≡ FP-Growth", `Quick,
     test_capped_catalog);
    prop_capped_random;
  ]
