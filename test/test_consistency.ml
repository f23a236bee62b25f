(* Cross-module consistency tests: brute-force oracles checked against the
   optimized implementations, and statistical end-to-end identities. *)

open Helpers

let random_points rng n arity card =
  Array.init n (fun _ -> Array.init arity (fun _ -> Prob.Rng.int rng card))

(* Lattice.matching (subset-enumeration with a hash probe) must equal the
   brute-force scan over all meta-rules. *)
let prop_lattice_matching_equals_bruteforce =
  qcheck ~count:60 "lattice matching equals brute force"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let points = random_points r 60 4 2 in
      let schema = Relation.Schema.of_cardinalities [ 2; 2; 2; 2 ] in
      let model =
        Mrsl.Model.learn_points
          ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
          schema points
      in
      let tup =
        Array.init 4 (fun _ ->
            if Prob.Rng.bool r then Some (Prob.Rng.int r 2) else None)
      in
      List.for_all
        (fun attr ->
          let lattice = Mrsl.Model.lattice model attr in
          let probe = Array.copy tup in
          probe.(attr) <- None;
          let fast =
            List.sort compare
              (List.map
                 (fun (m : Mrsl.Meta_rule.t) -> Mining.Itemset.to_list m.body)
                 (Mrsl.Lattice.matching lattice probe))
          in
          let brute =
            List.sort compare
              (List.filter_map
                 (fun (m : Mrsl.Meta_rule.t) ->
                   if Mrsl.Meta_rule.matches m probe then
                     Some (Mining.Itemset.to_list m.body)
                   else None)
                 (Mrsl.Lattice.meta_rules lattice))
          in
          fast = brute)
        [ 0; 1; 2; 3 ])

(* Meta-rule CPDs must equal conditional relative frequencies (before
   smoothing's tiny floor) on the training data. *)
let prop_meta_rule_cpds_are_conditional_frequencies =
  qcheck ~count:40 "meta-rule CPDs = conditional frequencies"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let points = random_points r 100 3 2 in
      let schema = Relation.Schema.of_cardinalities [ 2; 2; 2 ] in
      let model =
        Mrsl.Model.learn_points
          ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
          schema points
      in
      (* Independent oracle: reconstruct each meta-rule's raw confidence
         vector by brute-force counting under the mining criterion (a rule
         exists iff count(body ∪ {a = v}) reaches ⌈θ·N⌉), then apply the
         same smoothing. *)
      let n_points = Array.length points in
      let min_count =
        max 1 (int_of_float (Float.ceil (0.05 *. float_of_int n_points)))
      in
      let count pred = Array.fold_left (fun acc p -> if pred p then acc + 1 else acc) 0 points in
      let ok = ref true in
      Array.iter
        (fun lattice ->
          let attr = Mrsl.Lattice.head_attr lattice in
          List.iter
            (fun (m : Mrsl.Meta_rule.t) ->
              if not (Mining.Itemset.is_empty m.body) then begin
                let body_count =
                  count (fun p -> Mining.Itemset.matches_point m.body p)
                in
                let raw =
                  Array.init 2 (fun v ->
                      let c =
                        count (fun p ->
                            Mining.Itemset.matches_point m.body p
                            && p.(attr) = v)
                      in
                      if c >= min_count then
                        float_of_int c /. float_of_int body_count
                      else 0.)
                in
                let expected = Prob.Dist.smooth raw in
                for v = 0 to 1 do
                  if
                    not
                      (float_close ~eps:1e-9
                         (Prob.Dist.prob expected v)
                         (Prob.Dist.prob m.cpd v))
                  then ok := false
                done
              end)
            (Mrsl.Lattice.meta_rules lattice))
        (Mrsl.Model.lattices model);
      !ok)

(* Instance.support must agree with Apriori supports on the same data. *)
let prop_instance_support_matches_apriori =
  qcheck ~count:40 "Instance.support = Apriori support"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let points = random_points r 50 3 2 in
      let schema = Relation.Schema.of_cardinalities [ 2; 2; 2 ] in
      let inst = Relation.Instance.of_points schema (Array.to_list points) in
      let apriori =
        Mining.Apriori.mine
          ~config:{ threshold = 0.05; max_itemsets = 10_000 }
          ~cards:[| 2; 2; 2 |] points
      in
      List.for_all
        (fun (s, supp) ->
          let tup = Mining.Itemset.to_tuple ~arity:3 s in
          float_close ~eps:1e-9 supp (Relation.Instance.support inst tup))
        (Mining.Apriori.frequent apriori))

(* On the Fig 1 data, the weight of P(age | edu=HS) equals the support of
   the frequent itemset {edu = HS} — "precisely the support" per Section
   III. *)
let test_meta_rule_weight_is_body_support () =
  let rel = fig1_relation () in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.1 }
      rel
  in
  let age = 0 in
  let lattice = Mrsl.Model.lattice model age in
  match Mrsl.Lattice.find lattice (Mining.Itemset.of_list [ (1, 0) ]) with
  | None -> Alcotest.fail "P(age | edu=HS) not learned"
  | Some m ->
      check_float "weight = supp(edu=HS)"
        (Relation.Instance.support rel [| None; Some 0; None; None |])
        m.weight

(* A chain over a single-missing tuple just resamples the one attribute
   from its own conditional, so its draws follow Algorithm 2's direct
   estimate. Inference answers such a tuple by the vote and runs no
   chain; this drives the sampler kernel's one-cell step directly. *)
let test_gibbs_degenerates_to_single_inference () =
  let model =
    Mrsl.Model.learn_points dependent_schema (dependent_points 300)
  in
  let sampler = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 1; None; Some 0 |] in
  let direct = Mrsl.Infer_single.infer model tup 1 in
  let r = rng () in
  let c = Mrsl.Gibbs.chain r sampler tup in
  for _ = 1 to 20 do
    Mrsl.Gibbs.step r c
  done;
  let counts = Array.make 2 0. in
  for _ = 1 to 4000 do
    Mrsl.Gibbs.step r c;
    let v = (Mrsl.Gibbs.current c).(1) in
    counts.(v) <- counts.(v) +. 1.
  done;
  let sampled = Prob.Dist.of_weights counts in
  Alcotest.(check bool) "within sampling noise" true
    (Prob.Divergence.total_variation direct sampled < 0.03)

(* For a single-missing tuple, the block [Pdb.derive] emits carries
   exactly the floats [mrsl serve] answers: the engine's
   [Infer_single.infer ~cache], itself equal to the uncached vote. Every
   strategy, every voting method. *)
let test_derive_block_is_served_answer () =
  let entry = Bayesnet.Catalog.find "BN8" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      (Bayesnet.Network.sample_instance r net 2000)
  in
  let schema = Mrsl.Model.schema model in
  let arity = Relation.Schema.arity schema in
  let tuples =
    List.init 40 (fun _ ->
        let tup =
          Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
        in
        List.iter
          (fun a -> tup.(a) <- None)
          (Prob.Rng.sample_without_replacement r
             (1 + Prob.Rng.int r (arity - 1))
             arity);
        tup)
  in
  let inst = Relation.Instance.make schema tuples in
  let cache =
    Mrsl.Posterior_cache.create ~telemetry:(Mrsl.Telemetry.create ()) ()
  in
  let checked = ref 0 in
  List.iter
    (fun (strategy, method_) ->
      let blocks =
        Probdb.Pdb.blocks
          (Probdb.Pdb.derive
             ~config:{ burn_in = 10; samples = 100 }
             ~method_ ~strategy (rng ()) model inst)
      in
      List.iteri
        (fun i tup ->
          match Relation.Tuple.missing tup with
          | [ a ] ->
              let served =
                Mrsl.Infer_single.infer ~method_ ~cache model tup a
              in
              let uncached = Mrsl.Infer_single.infer ~method_ model tup a in
              if Prob.Dist.to_array served <> Prob.Dist.to_array uncached then
                Alcotest.failf "tuple %d: cached answer differs" i;
              let block =
                Probdb.Block.of_estimate
                  {
                    Mrsl.Gibbs.tuple = tup;
                    missing = [ a ];
                    cards = [| Relation.Schema.cardinality schema a |];
                    joint = served;
                    samples_used = 0;
                  }
              in
              if blocks.(i) <> block then
                Alcotest.failf "%s, %s: tuple %d's block is not served"
                  (Mrsl.Workload.strategy_name strategy)
                  (Mrsl.Voting.method_name method_)
                  i;
              incr checked
          | _ -> ())
        tuples)
    (List.concat_map
       (fun strategy ->
         List.map (fun m -> (strategy, m)) Mrsl.Voting.all_methods)
       Mrsl.Workload.[ Tuple_dag; Tuple_at_a_time; All_at_a_time ]);
  Alcotest.(check bool) "single-missing tuples checked" true (!checked > 0)

(* End-to-end statistical identity: on an independent network (BN4) the
   inferred CPD for any attribute is close to its marginal, regardless of
   evidence. *)
let test_independent_network_ignores_evidence () =
  let entry = Bayesnet.Catalog.find "BN4" in
  let r = rng () in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 5000 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      data
  in
  let point = Bayesnet.Network.sample_point r net in
  let tup = Relation.Tuple.of_point point in
  tup.(0) <- None;
  let with_evidence = Mrsl.Infer_single.infer model tup 0 in
  let no_evidence =
    Mrsl.Infer_single.infer model
      (Array.map (fun _ -> None) tup)
      0
  in
  Alcotest.(check bool) "evidence changes little" true
    (Prob.Divergence.total_variation with_evidence no_evidence < 0.12)

(* The tuple-DAG shares only matching samples: estimates conditioned on
   incompatible evidence stay distinct. *)
let test_dag_sharing_respects_evidence () =
  let model =
    Mrsl.Model.learn_points dependent_schema (dependent_points 300)
  in
  let sampler = Mrsl.Gibbs.sampler model in
  let workload : Relation.Tuple.t list =
    [
      [| None; None; None |];
      (* Children with contradictory evidence on a0. *)
      [| Some 0; None; None |];
      [| Some 1; None; None |];
    ]
  in
  let result =
    Mrsl.Workload.run
      ~config:{ burn_in = 20; samples = 500 }
      ~strategy:Mrsl.Workload.Tuple_dag (rng ()) sampler workload
  in
  let find tup =
    snd (List.find (fun (t, _) -> Relation.Tuple.equal t tup) result.estimates)
  in
  let e0 : Mrsl.Gibbs.estimate = find [| Some 0; None; None |] in
  let e1 : Mrsl.Gibbs.estimate = find [| Some 1; None; None |] in
  (* a1 = a0 in the data, so the two marginals must be near-opposite. *)
  let m0 = Mrsl.Gibbs.marginal e0 1 and m1 = Mrsl.Gibbs.marginal e1 1 in
  Alcotest.(check bool) "evidence drives the shared samples apart" true
    (Prob.Dist.prob m0 0 > 0.8 && Prob.Dist.prob m1 1 > 0.8)

(* Blocks derived from estimates re-expose the estimate's probabilities. *)
let prop_block_roundtrip =
  qcheck ~count:30 "block alternatives sum to estimate mass"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let model =
        Mrsl.Model.learn_points dependent_schema (dependent_points 100)
      in
      let sampler = Mrsl.Gibbs.sampler model in
      let est =
        Mrsl.Gibbs.run
          ~config:{ burn_in = 5; samples = 100 }
          (Prob.Rng.create seed) sampler
          [| Some 0; None; None |]
      in
      let block = Probdb.Block.of_estimate est in
      let total =
        List.fold_left
          (fun acc (a : Probdb.Block.alternative) -> acc +. a.prob)
          0. block.alternatives
      in
      float_close ~eps:1e-9 1.0 (total +. block.truncated_mass))

let suite =
  [
    prop_lattice_matching_equals_bruteforce;
    prop_meta_rule_cpds_are_conditional_frequencies;
    prop_instance_support_matches_apriori;
    ("meta-rule weight = body support (Fig 1)", `Quick,
     test_meta_rule_weight_is_body_support);
    ("gibbs degenerates to Algorithm 2", `Slow,
     test_gibbs_degenerates_to_single_inference);
    ("derive block = served answer", `Quick,
     test_derive_block_is_served_answer);
    ("independent network ignores evidence", `Slow,
     test_independent_network_ignores_evidence);
    ("DAG sharing respects evidence", `Quick, test_dag_sharing_respects_evidence);
    prop_block_roundtrip;
  ]
