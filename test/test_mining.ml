(* Tests for the mining substrate: Itemset, Apriori, Assoc_rule. Support
   values are cross-checked against brute-force counting and the paper's
   worked example. *)

open Helpers

let iset = Mining.Itemset.of_list

let test_itemset_of_list_sorted () =
  let s = iset [ (2, 1); (0, 3) ] in
  Alcotest.(check (list (pair int int))) "sorted by attribute" [ (0, 3); (2, 1) ]
    (Mining.Itemset.to_list s)

let test_itemset_rejects () =
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Itemset.of_list: duplicate attribute") (fun () ->
      ignore (iset [ (0, 1); (0, 2) ]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Itemset.of_list: negative attribute or value") (fun () ->
      ignore (iset [ (-1, 0) ]))

let test_itemset_lookup () =
  let s = iset [ (0, 3); (2, 1); (5, 0) ] in
  Alcotest.(check (option int)) "value_of present" (Some 1)
    (Mining.Itemset.value_of s 2);
  Alcotest.(check (option int)) "value_of absent" None
    (Mining.Itemset.value_of s 3);
  Alcotest.(check bool) "mem" true (Mining.Itemset.mem_attr s 5)

let test_itemset_add_remove () =
  let s = iset [ (1, 0) ] in
  let s2 = Mining.Itemset.add s 0 2 in
  Alcotest.(check (list (pair int int))) "added" [ (0, 2); (1, 0) ]
    (Mining.Itemset.to_list s2);
  Alcotest.check_raises "add duplicate"
    (Invalid_argument "Itemset.add: attribute already present") (fun () ->
      ignore (Mining.Itemset.add s 1 1));
  Alcotest.(check bool) "remove" true
    (Mining.Itemset.equal s (Mining.Itemset.remove_attr s2 0));
  Alcotest.(check bool) "remove absent is identity" true
    (Mining.Itemset.equal s (Mining.Itemset.remove_attr s 7))

let test_itemset_subset () =
  let small = iset [ (0, 1) ] in
  let big = iset [ (0, 1); (2, 0) ] in
  let conflicting = iset [ (0, 2); (2, 0) ] in
  Alcotest.(check bool) "subset" true (Mining.Itemset.subset small big);
  Alcotest.(check bool) "proper" true (Mining.Itemset.proper_subset small big);
  Alcotest.(check bool) "not proper of itself" false
    (Mining.Itemset.proper_subset big big);
  Alcotest.(check bool) "value conflict" false
    (Mining.Itemset.subset small conflicting);
  Alcotest.(check bool) "empty is subset" true
    (Mining.Itemset.subset Mining.Itemset.empty small)

let test_itemset_union () =
  let a = iset [ (0, 1); (1, 0) ] in
  let b = iset [ (1, 0); (2, 1) ] in
  (match Mining.Itemset.union_disjoint a b with
  | Some u ->
      Alcotest.(check (list (pair int int))) "union" [ (0, 1); (1, 0); (2, 1) ]
        (Mining.Itemset.to_list u)
  | None -> Alcotest.fail "expected union");
  let c = iset [ (1, 1) ] in
  Alcotest.(check bool) "conflict yields None" true
    (Mining.Itemset.union_disjoint a c = None)

let test_itemset_matching () =
  let s = iset [ (0, 1); (2, 0) ] in
  Alcotest.(check bool) "matches point" true
    (Mining.Itemset.matches_point s [| 1; 9; 0 |]);
  Alcotest.(check bool) "rejects point" false
    (Mining.Itemset.matches_point s [| 0; 9; 0 |]);
  Alcotest.(check bool) "matches tuple knowns" true
    (Mining.Itemset.matches_tuple s [| Some 1; None; Some 0 |]);
  Alcotest.(check bool) "missing slot does not match" false
    (Mining.Itemset.matches_tuple s [| Some 1; None; None |])

let test_itemset_tuple_roundtrip () =
  let tup : Relation.Tuple.t = [| Some 2; None; Some 0 |] in
  let s = Mining.Itemset.of_tuple tup in
  Alcotest.(check bool) "roundtrip" true
    (Relation.Tuple.equal tup (Mining.Itemset.to_tuple ~arity:3 s))

let small_points =
  [|
    [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 0 |]; [| 1; 1; 1 |];
    [| 1; 1; 0 |]; [| 0; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 1; 1 |];
  |]

let test_apriori_supports_exact () =
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.1; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  List.iter
    (fun (s, supp) ->
      check_float
        (Format.asprintf "support of %a" Mining.Itemset.pp s)
        (brute_support small_points s)
        supp)
    (Mining.Apriori.frequent result)

let test_apriori_threshold_monotone () =
  let mine th =
    Mining.Apriori.mine
      ~config:{ threshold = th; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  let low = Mining.Apriori.count (mine 0.05) in
  let high = Mining.Apriori.count (mine 0.4) in
  Alcotest.(check bool) "higher threshold, fewer itemsets" true (high <= low);
  Alcotest.(check bool) "low threshold finds many" true (low > high)

let test_apriori_empty_itemset_present () =
  let result =
    Mining.Apriori.mine ~cards:[| 2; 2; 2 |] small_points
  in
  Alcotest.(check (option (float 1e-9))) "empty itemset support 1" (Some 1.)
    (Mining.Apriori.support result Mining.Itemset.empty)

let test_apriori_downward_closure () =
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.1; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  List.iter
    (fun (s, _) ->
      List.iter
        (fun a ->
          let sub = Mining.Itemset.remove_attr s a in
          if Mining.Apriori.support result sub = None then
            Alcotest.failf "subset of a frequent itemset is missing")
        (Mining.Itemset.attrs s))
    (Mining.Apriori.frequent result)

let test_apriori_empty_data () =
  let result = Mining.Apriori.mine ~cards:[| 2 |] [||] in
  Alcotest.(check int) "no itemsets" 0 (Mining.Apriori.count result);
  Alcotest.(check int) "no rounds" 0 (Mining.Apriori.rounds result)

let test_apriori_max_itemsets_cap () =
  (* A 6-attribute dataset with every combination frequent: a tiny cap must
     truncate and mark it. *)
  let r = rng () in
  let points =
    Array.init 400 (fun _ -> Array.init 6 (fun _ -> Prob.Rng.int r 2))
  in
  let capped =
    Mining.Apriori.mine
      ~config:{ threshold = 0.001; max_itemsets = 10 }
      ~cards:(Array.make 6 2) points
  in
  let free =
    Mining.Apriori.mine
      ~config:{ threshold = 0.001; max_itemsets = 100_000 }
      ~cards:(Array.make 6 2) points
  in
  Alcotest.(check bool) "cap fired" true (Mining.Apriori.truncated capped);
  Alcotest.(check bool) "cap reduces itemsets" true
    (Mining.Apriori.count capped < Mining.Apriori.count free);
  Alcotest.(check bool) "uncapped explored deeper" true
    (Mining.Apriori.rounds free >= Mining.Apriori.rounds capped)

let test_apriori_rounds () =
  (* Perfectly correlated attributes: itemsets of every size are frequent. *)
  let points = Array.init 100 (fun i -> Array.make 4 (i mod 2)) in
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.4; max_itemsets = 1000 }
      ~cards:(Array.make 4 2) points
  in
  Alcotest.(check int) "reaches size 4" 4 (Mining.Apriori.rounds result);
  Alcotest.(check int) "all correlated itemsets"
    (* sizes 1..4 with 2 value combos each: 2*(C(4,1)+C(4,2)+C(4,3)+C(4,4)) *)
    (2 * (4 + 6 + 4 + 1))
    (Mining.Apriori.count result)

let test_apriori_rejects () =
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Apriori.mine: threshold must be in [0, 1]") (fun () ->
      ignore
        (Mining.Apriori.mine
           ~config:{ threshold = 2.; max_itemsets = 10 }
           ~cards:[| 2 |] [| [| 0 |] |]));
  Alcotest.check_raises "value out of range"
    (Invalid_argument "Apriori.mine: value out of range") (fun () ->
      ignore (Mining.Apriori.mine ~cards:[| 2 |] [| [| 5 |] |]));
  Alcotest.check_raises "cap"
    (Invalid_argument "Apriori.mine: max_itemsets must be positive")
    (fun () ->
      ignore
        (Mining.Apriori.mine
           ~config:{ threshold = 0.1; max_itemsets = 0 }
           ~cards:[| 2 |] [| [| 0 |] |]));
  Alcotest.check_raises "tuple arity mismatch"
    (Invalid_argument "Apriori.mine: tuple arity mismatch") (fun () ->
      ignore (Mining.Apriori.mine ~cards:[| 2; 2 |] [| [| 0; 1 |]; [| 0 |] |]))

(* Association rules *)

let test_assoc_rules_confidence () =
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.1; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  let rules = Mining.Assoc_rule.mine_for_attr result 1 in
  Alcotest.(check bool) "rules exist" true (rules <> []);
  List.iter
    (fun (r : Mining.Assoc_rule.t) ->
      Alcotest.(check int) "head attr" 1 r.head_attr;
      let whole = Mining.Itemset.add r.body 1 r.head_value in
      check_float "confidence = supp(whole)/supp(body)"
        (brute_support small_points whole
        /. brute_support small_points r.body)
        r.confidence;
      Alcotest.(check bool) "confidence in (0,1]" true
        (r.confidence > 0. && r.confidence <= 1. +. 1e-9))
    rules

let test_assoc_rules_empty_body_present () =
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.1; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  let rules = Mining.Assoc_rule.mine_for_attr result 0 in
  Alcotest.(check bool) "has empty-body rules" true
    (List.exists
       (fun (r : Mining.Assoc_rule.t) -> Mining.Itemset.is_empty r.body)
       rules)

let test_assoc_rules_paper_example () =
  (* Section II defines confidence as supp(body ∪ head)/supp(body). On the
     Fig 1 complete part, 4 of the 8 points have edu=HS (t4, t6, t7, t17),
     of which 3 have age=20 — so conf(age=20 | edu=HS) = 3/4. *)
  let r = fig1_relation () in
  let points = Relation.Instance.complete_part r in
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.01; max_itemsets = 1000 }
      ~cards:[| 3; 3; 2; 2 |] points
  in
  let rules = Mining.Assoc_rule.mine_for_attr result 0 in
  let rule =
    List.find
      (fun (r : Mining.Assoc_rule.t) ->
        Mining.Itemset.equal r.body (iset [ (1, 0) ]) && r.head_value = 0)
      rules
  in
  check_float "conf(age=20 | edu=HS)" (3. /. 4.) rule.confidence;
  check_float "body support" (4. /. 8.) rule.body_support

let test_assoc_rules_all_attrs () =
  let result =
    Mining.Apriori.mine
      ~config:{ threshold = 0.1; max_itemsets = 1000 }
      ~cards:[| 2; 2; 2 |] small_points
  in
  let all = Mining.Assoc_rule.mine result ~arity:3 in
  let per_attr a =
    List.length (Mining.Assoc_rule.mine_for_attr result a)
  in
  Alcotest.(check int) "mine = concat of per-attr"
    (per_attr 0 + per_attr 1 + per_attr 2)
    (List.length all)

(* Properties *)

let points_gen =
  QCheck2.Gen.(
    list_size (int_range 8 40)
      (tup3 (int_range 0 1) (int_range 0 2) (int_range 0 1))
    >|= fun rows ->
    Array.of_list (List.map (fun (a, b, c) -> [| a; b; c |]) rows))

let prop_apriori_supports_match_bruteforce =
  qcheck ~count:60 "apriori supports equal brute force" points_gen
    (fun points ->
      let result =
        Mining.Apriori.mine
          ~config:{ threshold = 0.15; max_itemsets = 1000 }
          ~cards:[| 2; 3; 2 |] points
      in
      List.for_all
        (fun (s, supp) -> float_close ~eps:1e-9 (brute_support points s) supp)
        (Mining.Apriori.frequent result))

let prop_apriori_respects_threshold =
  qcheck ~count:60 "every frequent itemset passes the threshold" points_gen
    (fun points ->
      let threshold = 0.2 in
      let result =
        Mining.Apriori.mine
          ~config:{ threshold; max_itemsets = 1000 }
          ~cards:[| 2; 3; 2 |] points
      in
      List.for_all
        (fun (s, supp) -> Mining.Itemset.is_empty s || supp >= threshold -. 1e-9)
        (Mining.Apriori.frequent result))

let prop_rule_support_decomposition =
  qcheck ~count:60 "rule_support = confidence * body_support" points_gen
    (fun points ->
      let result =
        Mining.Apriori.mine
          ~config:{ threshold = 0.1; max_itemsets = 1000 }
          ~cards:[| 2; 3; 2 |] points
      in
      List.for_all
        (fun (r : Mining.Assoc_rule.t) ->
          float_close ~eps:1e-9 r.rule_support (r.confidence *. r.body_support))
        (Mining.Assoc_rule.mine result ~arity:3))

let suite =
  [
    ("itemset sorted construction", `Quick, test_itemset_of_list_sorted);
    ("itemset rejects", `Quick, test_itemset_rejects);
    ("itemset lookup", `Quick, test_itemset_lookup);
    ("itemset add/remove", `Quick, test_itemset_add_remove);
    ("itemset subset", `Quick, test_itemset_subset);
    ("itemset union", `Quick, test_itemset_union);
    ("itemset matching", `Quick, test_itemset_matching);
    ("itemset/tuple roundtrip", `Quick, test_itemset_tuple_roundtrip);
    ("apriori exact supports", `Quick, test_apriori_supports_exact);
    ("apriori threshold monotone", `Quick, test_apriori_threshold_monotone);
    ("apriori empty itemset", `Quick, test_apriori_empty_itemset_present);
    ("apriori downward closure", `Quick, test_apriori_downward_closure);
    ("apriori empty data", `Quick, test_apriori_empty_data);
    ("apriori maxItemsets cap", `Quick, test_apriori_max_itemsets_cap);
    ("apriori round count", `Quick, test_apriori_rounds);
    ("apriori rejects", `Quick, test_apriori_rejects);
    ("association rule confidence", `Quick, test_assoc_rules_confidence);
    ("association rules with empty body", `Quick,
     test_assoc_rules_empty_body_present);
    ("association rules on the paper's example", `Quick,
     test_assoc_rules_paper_example);
    ("mine covers all attributes", `Quick, test_assoc_rules_all_attrs);
    prop_apriori_supports_match_bruteforce;
    prop_apriori_respects_threshold;
    prop_rule_support_decomposition;
  ]
