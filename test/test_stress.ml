(* Stress and alternate-path tests: wide schemas (Apriori over 24
   attributes, Gibbs over a huge joint domain), the full 20-network catalog
   end-to-end, deep subsumption chains, and CSV fuzzing. *)

open Helpers

let test_apriori_wide_arity_candidate_scan () =
  (* 24 attributes, so C(24, k) attribute subsets per point: supports
     must still match brute force. *)
  let r = rng () in
  let arity = 24 in
  let points =
    Array.init 300 (fun _ -> Array.init arity (fun _ -> Prob.Rng.int r 2))
  in
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.35; max_itemsets = 2000 }
      ~cards:(Array.make arity 2) points
  in
  Alcotest.(check bool) "found itemsets" true (Mining.Apriori.count result > 0);
  List.iter
    (fun (s, supp) ->
      check_float "wide-arity support" (brute_support points s) supp)
    (Mining.Apriori.frequent result)

let test_gibbs_memo_on_huge_domain () =
  (* 30 attributes of cardinality 3: a joint domain of 3^30 ≈ 2e14. The
     conditional tables key on each attribute's lattice-relevant context,
     not on the joint domain, so the sampler still memoizes. *)
  let arity = 30 in
  let r = rng () in
  let schema = Relation.Schema.of_cardinalities (List.init arity (fun _ -> 3)) in
  let points =
    Array.init 200 (fun _ -> Array.init arity (fun _ -> Prob.Rng.int r 3))
  in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.3 }
      schema points
  in
  let sampler = Mrsl.Gibbs.sampler model in
  let point = Array.init arity (fun _ -> 0) in
  let first = Mrsl.Gibbs.conditional sampler point 0 in
  let again = Mrsl.Gibbs.conditional sampler point 0 in
  let hits, misses = Mrsl.Gibbs.cache_stats sampler in
  Alcotest.(check int) "one cache hit" 1 hits;
  Alcotest.(check int) "one cache miss" 1 misses;
  Alcotest.(check bool) "the hit returns the stored posterior" true
    (first == again);
  (* Inference still works end-to-end. *)
  let tup = Array.init arity (fun i -> if i < 2 then None else Some 0) in
  let est =
    Mrsl.Gibbs.run ~config:{ burn_in = 5; samples = 50 } r sampler tup
  in
  check_dist_sums_to_one "estimate valid" est.joint

let test_catalog_end_to_end () =
  (* Every one of the 20 networks goes through generate → sample → learn →
     single-attribute inference; a broad integration sweep. *)
  List.iter
    (fun (entry : Bayesnet.Catalog.entry) ->
      let r = Prob.Rng.create 99 in
      let net = Bayesnet.Network.generate r entry.topology in
      let data = Bayesnet.Network.sample_instance r net 400 in
      let model =
        Mrsl.Model.learn
          ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
          data
      in
      let tup = Relation.Tuple.of_point (Bayesnet.Network.sample_point r net) in
      tup.(0) <- None;
      let d = Mrsl.Infer_single.infer model tup 0 in
      check_dist_sums_to_one (entry.id ^ " estimate") d;
      check_dist_positive (entry.id ^ " positive") d)
    Bayesnet.Catalog.all

let test_deep_subsumption_chain_workload () =
  (* t* ≻ {a0} ≻ {a0,a1} ≻ {a0,a1,a2} ≻ {a0,a1,a2,a3}: a 5-level chain.
     Sharing must cascade and every node must reach the target count. *)
  let arity = 5 in
  let schema = Relation.Schema.of_cardinalities (List.init arity (fun _ -> 2)) in
  let r = rng () in
  let points =
    Array.init 300 (fun _ -> Array.init arity (fun _ -> Prob.Rng.int r 2))
  in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
      schema points
  in
  let workload =
    List.init arity (fun k ->
        (* k known attributes (all value 0), rest missing. *)
        Array.init arity (fun i -> if i < k then Some 0 else None))
  in
  let dag = Mrsl.Tuple_dag.build workload in
  (* The chain must be a path: one root, each node one child. *)
  Alcotest.(check int) "single root" 1 (List.length (Mrsl.Tuple_dag.roots dag));
  Alcotest.(check int) "path edges" (arity - 1) (Mrsl.Tuple_dag.edge_count dag);
  let sampler = Mrsl.Gibbs.sampler model in
  let result =
    Mrsl.Workload.run
      ~config:{ burn_in = 10; samples = 120 }
      ~strategy:Mrsl.Workload.Tuple_dag r sampler workload
  in
  Alcotest.(check int) "all nodes estimated" arity
    (List.length result.estimates);
  (* The path's last node misses one cell: it takes the vote, exact and
     unsampled, as a leaf of the path. *)
  List.iter
    (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
      if Relation.Tuple.missing_count tup = 1 then
        Alcotest.(check int) "voted" 0 est.samples_used
      else
        Alcotest.(check bool) "reached target" true (est.samples_used >= 120))
    result.estimates;
  Alcotest.(check bool) "sharing happened" true (result.stats.shared > 0)

let test_workload_star_tuple_donates_to_all () =
  (* When t* (everything missing) is in the workload, every other node is
     its descendant and receives matching samples. *)
  let model = Mrsl.Model.learn_points dependent_schema (dependent_points 300) in
  let sampler = Mrsl.Gibbs.sampler model in
  let workload : Relation.Tuple.t list =
    [ [| None; None; None |]; [| Some 0; None; None |]; [| None; Some 1; None |] ]
  in
  let result =
    Mrsl.Workload.run
      ~config:{ burn_in = 10; samples = 100 }
      ~strategy:Mrsl.Workload.Tuple_dag (rng ()) sampler workload
  in
  Alcotest.(check bool) "samples shared from t*" true (result.stats.shared > 0);
  Alcotest.(check int) "all estimated" 3 (List.length result.estimates)

let test_csv_fuzz_roundtrip () =
  (* Random relations with random labels (including separators and quotes)
     survive write → read. *)
  let r = rng () in
  for _ = 1 to 25 do
    let arity = 1 + Prob.Rng.int r 4 in
    let label () =
      let pool = [| "a"; "b,c"; "d\"e"; "f g"; "héllo"; "0"; "-1.5" |] in
      pool.(Prob.Rng.int r (Array.length pool))
    in
    let attrs =
      List.init arity (fun i ->
          (* Distinct labels per attribute. *)
          let rec build n acc =
            if n = 0 then acc
            else
              let l = label () in
              if List.mem l acc then build n acc else build (n - 1) (l :: acc)
          in
          Relation.Attribute.make
            ("col" ^ string_of_int i)
            (build (2 + Prob.Rng.int r 2) []))
    in
    let schema = Relation.Schema.make attrs in
    let tuples =
      List.init (5 + Prob.Rng.int r 10) (fun _ ->
          Array.init arity (fun a ->
              if Prob.Rng.float r < 0.2 then None
              else Some (Prob.Rng.int r (Relation.Schema.cardinality schema a))))
    in
    let inst = Relation.Instance.make schema tuples in
    let text = Relation.Csv_io.write_string inst in
    let back = Relation.Csv_io.read_string ~schema text in
    Alcotest.(check int) "size" (Relation.Instance.size inst)
      (Relation.Instance.size back);
    Array.iteri
      (fun i tup ->
        Alcotest.(check bool) "tuples preserved" true
          (Relation.Tuple.equal tup (Relation.Instance.tuples back).(i)))
      (Relation.Instance.tuples inst)
  done

let test_bn7_large_domain_pipeline () =
  (* BN7's 518,400-value joint domain stresses the mixed-radix paths. *)
  let entry = Bayesnet.Catalog.find "BN7" in
  let r = rng () in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 500 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
      data
  in
  let sampler = Mrsl.Gibbs.sampler model in
  let tup = Relation.Tuple.of_point (Bayesnet.Network.sample_point r net) in
  tup.(3) <- None;
  tup.(7) <- None;
  let est = Mrsl.Gibbs.run ~config:{ burn_in = 10; samples = 100 } r sampler tup in
  check_dist_sums_to_one "BN7 estimate" est.joint;
  let _, truth = Bayesnet.Network.posterior_joint net tup in
  Alcotest.(check int) "domain sizes agree" (Prob.Dist.size truth)
    (Prob.Dist.size est.joint)

let test_model_many_values_smoothing () =
  (* Cardinality-10 attribute with a skewed marginal: the smoothed root
     still sums to 1 and keeps every value positive. *)
  let schema = Relation.Schema.of_cardinalities [ 10; 2 ] in
  let r = rng () in
  let points =
    Array.init 500 (fun _ ->
        [| (if Prob.Rng.float r < 0.9 then 0 else 1 + Prob.Rng.int r 9);
           Prob.Rng.int r 2 |])
  in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      schema points
  in
  let root = Mrsl.Lattice.root (Mrsl.Model.lattice model 0) in
  check_dist_sums_to_one "skewed root" root.cpd;
  check_dist_positive "skewed root positive" root.cpd;
  Alcotest.(check int) "mode is the frequent value" 0 (Prob.Dist.mode root.cpd)

let suite =
  [
    ("apriori wide arity (candidate scan)", `Quick,
     test_apriori_wide_arity_candidate_scan);
    ("gibbs memo on huge domains", `Quick, test_gibbs_memo_on_huge_domain);
    ("all 20 catalog networks end-to-end", `Slow, test_catalog_end_to_end);
    ("deep subsumption chain workload", `Quick,
     test_deep_subsumption_chain_workload);
    ("star tuple donates to all", `Quick, test_workload_star_tuple_donates_to_all);
    ("csv fuzz roundtrip", `Quick, test_csv_fuzz_roundtrip);
    ("BN7 large-domain pipeline", `Slow, test_bn7_large_domain_pipeline);
    ("high-cardinality smoothing", `Quick, test_model_many_values_smoothing);
  ]
