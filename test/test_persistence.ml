(* Tests for model serialization (Model_io) and discretization. *)

open Helpers

let models_equivalent a b =
  (* Structural equivalence: same schema, same lattices (bodies, weights,
     CPDs), same params. *)
  Relation.Schema.equal (Mrsl.Model.schema a) (Mrsl.Model.schema b)
  && Mrsl.Model.params a = Mrsl.Model.params b
  && Mrsl.Model.size a = Mrsl.Model.size b
  && Array.for_all2
       (fun la lb ->
         List.for_all2
           (fun (ma : Mrsl.Meta_rule.t) (mb : Mrsl.Meta_rule.t) ->
             Mining.Itemset.equal ma.body mb.body
             && float_close ~eps:1e-12 ma.weight mb.weight
             && Array.for_all2
                  (fun x y -> float_close ~eps:1e-12 x y)
                  (Prob.Dist.to_array ma.cpd)
                  (Prob.Dist.to_array mb.cpd))
           (Mrsl.Lattice.meta_rules la)
           (Mrsl.Lattice.meta_rules lb))
       (Mrsl.Model.lattices a) (Mrsl.Model.lattices b)

let test_roundtrip_synthetic () =
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
      dependent_schema (dependent_points 200)
  in
  let restored = Mrsl.Model_io.of_string (Mrsl.Model_io.to_string model) in
  Alcotest.(check bool) "roundtrip equivalent" true
    (models_equivalent model restored)

let test_roundtrip_fig1_labels () =
  (* Real labels (with K suffixes etc.) survive the round trip. *)
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.1 }
      (fig1_relation ())
  in
  let restored = Mrsl.Model_io.of_string (Mrsl.Model_io.to_string model) in
  Alcotest.(check bool) "labels preserved" true
    (models_equivalent model restored);
  let schema = Mrsl.Model.schema restored in
  Alcotest.(check string) "label text" "100K"
    (Relation.Attribute.value_label (Relation.Schema.attribute schema 2) 1)

let test_roundtrip_awkward_labels () =
  (* Labels containing tabs, percent signs, and newlines. *)
  let schema =
    Relation.Schema.make
      [
        Relation.Attribute.make "a" [ "x\ty"; "p%q" ];
        Relation.Attribute.make "b" [ "new\nline"; "plain" ];
      ]
  in
  let points = List.init 20 (fun i -> [| i mod 2; i / 2 mod 2 |]) in
  let model =
    Mrsl.Model.learn (Relation.Instance.of_points schema points)
  in
  let restored = Mrsl.Model_io.of_string (Mrsl.Model_io.to_string model) in
  Alcotest.(check bool) "awkward labels survive" true
    (models_equivalent model restored)

let test_restored_model_infers_identically () =
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      dependent_schema (dependent_points 300)
  in
  let restored = Mrsl.Model_io.of_string (Mrsl.Model_io.to_string model) in
  let tup : Relation.Tuple.t = [| Some 1; None; Some 0 |] in
  List.iter
    (fun m ->
      let a = Mrsl.Infer_single.infer ~method_:m model tup 1 in
      let b = Mrsl.Infer_single.infer ~method_:m restored tup 1 in
      check_float ~eps:1e-9
        ("identical inference: " ^ Mrsl.Voting.method_name m)
        (Prob.Dist.prob a 0) (Prob.Dist.prob b 0))
    Mrsl.Voting.all_methods

let test_file_roundtrip () =
  let model = Mrsl.Model.learn_points dependent_schema (dependent_points 100) in
  let path = Filename.temp_file "mrsl_model" ".mrsl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mrsl.Model_io.save path model;
      let restored = Mrsl.Model_io.load path in
      Alcotest.(check bool) "file roundtrip" true
        (models_equivalent model restored))

let test_of_string_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (try
       ignore (Mrsl.Model_io.of_string "nope");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Mrsl.Model_io.of_string "mrsl-model\tv1\nparams\t0.02\t1000\t1e-05\n");
       false
     with Failure _ -> true)

(* A hand-written two-attribute model, and copies broken on one line:
   each loads today only to fail later in inference, so each must be
   refused at that line. *)
let hand_model ?(lattice0 = "lattice\t0\t2") ?(meta = "meta\t0.5\t1=0\t0.25;0.75") () =
  String.concat "\n"
    [
      "mrsl-model\tv1";
      "params\t0.01\t1000\t1e-05";
      "stats\t0\tfalse";
      "schema\t2";
      "attr\ta\tx\ty";
      "attr\tb\tx\ty";
      lattice0;
      "meta\t1\t-\t0.5;0.5";
      meta;
      "lattice\t1\t1";
      "meta\t1\t-\t0.5;0.5";
      "";
    ]

let test_of_string_rejects_unservable () =
  ignore (Mrsl.Model_io.of_string (hand_model ()) : Mrsl.Model.t);
  let refused what ~line text =
    match Mrsl.Model_io.of_string text with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s refused at line %d: %s" what line msg)
          true
          (String.starts_with
             ~prefix:(Printf.sprintf "Model_io line %d: " line)
             msg)
  in
  refused "a NaN weight" ~line:9 (hand_model ~meta:"meta\tnan\t1=0\t0.25;0.75" ());
  refused "a lattice attribute out of range" ~line:7
    (hand_model ~lattice0:"lattice\t5\t2" ());
  refused "a body attribute out of range" ~line:9
    (hand_model ~meta:"meta\t0.5\t2=0\t0.25;0.75" ());
  refused "a body value out of range" ~line:9
    (hand_model ~meta:"meta\t0.5\t1=2\t0.25;0.75" ());
  refused "a head attribute in its own body" ~line:9
    (hand_model ~meta:"meta\t0.5\t0=0\t0.25;0.75" ())

let test_roundtrip_exact_bn7 () =
  (* Stored CPDs are adopted as written: re-dividing them by their sum,
     which is 1 only to within an ulp, used to rewrite about one line in
     sixteen of a learned BN7 model. *)
  let entry = Bayesnet.Catalog.find "BN7" in
  let r = rng () in
  let net = Bayesnet.Network.generate r entry.topology in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      (Bayesnet.Network.sample_instance r net 5000)
  in
  let text = Mrsl.Model_io.to_string model in
  let again = Mrsl.Model_io.to_string (Mrsl.Model_io.of_string text) in
  Alcotest.(check bool) "to_string (of_string s) = s" true (again = text)

(* Saved models pinned byte for byte: MD5 digests of [Model_io.to_string]
   recorded at commit 4e513f1, before Apriori switched to vertical
   counting. The network and its 5000 rows come from seed 42; the cap is
   1000. *)
let golden_models =
  [
    ("BN7", 0.005, "e3b971d54b19858cb26e9a0fe4b8dac1");
    ("BN7", 0.01, "cdd75e0e9293a0eaa79e3dd31718b020");
    ("BN7", 0.05, "38c132b20bac42ec9e1bd6a9e2378dd2");
    ("BN10", 0.005, "d1bc2d74b106b96fc9daadb5a587a42b");
    ("BN10", 0.01, "2a45260dbc99bf44aa0b5b4bd57ed17d");
    ("BN10", 0.05, "c2f143fb8d09442f501e03bb70401875");
  ]

let golden_instance id =
  let r = rng () in
  let net = Bayesnet.Network.generate r (Bayesnet.Catalog.find id).topology in
  Bayesnet.Network.sample_instance r net 5000

let test_golden_model_bytes () =
  List.iter
    (fun (id, theta, digest) ->
      let model =
        Mrsl.Model.learn
          ~params:
            {
              Mrsl.Model.default_params with
              support_threshold = theta;
              max_itemsets = 1000;
            }
          (golden_instance id)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s θ=%g" id theta)
        digest
        (Digest.to_hex (Digest.string (Mrsl.Model_io.to_string model))))
    golden_models

let test_golden_truncated_mine () =
  (* BN7 at θ = 0.01: level 3 exceeds the cap, so mining stops there. *)
  let inst = golden_instance "BN7" in
  let schema = Relation.Instance.schema inst in
  let cards =
    Array.init (Relation.Schema.arity schema)
      (Relation.Schema.cardinality schema)
  in
  let mined =
    Mining.Apriori.mine
      ~config:{ threshold = 0.01; max_itemsets = 1000 }
      ~cards
      (Relation.Instance.complete_part inst)
  in
  Alcotest.(check bool) "truncated" true (Mining.Apriori.truncated mined);
  Alcotest.(check int) "rounds" 3 (Mining.Apriori.rounds mined);
  Alcotest.(check int) "itemsets" 3574 (Mining.Apriori.count mined)

let test_of_string_rejects_unnormalized_cpd () =
  let model = Mrsl.Model.learn_points dependent_schema (dependent_points 100) in
  let lines = String.split_on_char '\n' (Mrsl.Model_io.to_string model) in
  let first_meta = ref true in
  let text =
    String.concat "\n"
      (List.map
         (fun line ->
           match String.split_on_char '\t' line with
           | [ "meta"; w; body; _ ] when !first_meta ->
               first_meta := false;
               String.concat "\t" [ "meta"; w; body; "0.5;0.6" ]
           | _ -> line)
         lines)
  in
  match Mrsl.Model_io.of_string text with
  | _ -> Alcotest.fail "a CPD summing to 1.1 was accepted"
  | exception Failure msg ->
      Alcotest.(check bool) ("line-numbered: " ^ msg) true
        (String.starts_with ~prefix:"Model_io line " msg)

(* --- Discretize --- *)

let test_cut_points_equal_width () =
  let cuts =
    Relation.Discretize.cut_points Relation.Discretize.Equal_width ~bins:4
      [| 0.; 10. |]
  in
  Alcotest.(check int) "three cuts" 3 (Array.length cuts);
  check_float "cut 1" 2.5 cuts.(0);
  check_float "cut 2" 5.0 cuts.(1);
  check_float "cut 3" 7.5 cuts.(2)

let test_cut_points_equal_frequency () =
  let values = Array.init 100 (fun i -> float_of_int i) in
  let cuts =
    Relation.Discretize.cut_points Relation.Discretize.Equal_frequency ~bins:4
      values
  in
  check_float "quartile 1" 25. cuts.(0);
  check_float "median" 50. cuts.(1);
  check_float "quartile 3" 75. cuts.(2)

let test_bucket_of () =
  let cuts = [| 1.; 2.; 3. |] in
  Alcotest.(check int) "below" 0 (Relation.Discretize.bucket_of cuts 0.5);
  Alcotest.(check int) "boundary goes right" 1
    (Relation.Discretize.bucket_of cuts 1.0);
  Alcotest.(check int) "top" 3 (Relation.Discretize.bucket_of cuts 99.)

let test_column_roundtrip () =
  let values = [| Some 1.0; None; Some 5.0; Some 9.0; Some 2.0 |] in
  let attr, col =
    Relation.Discretize.column ~strategy:Relation.Discretize.Equal_width
      ~bins:3 ~name:"temp" values
  in
  Alcotest.(check int) "three buckets" 3 (Relation.Attribute.cardinality attr);
  Alcotest.(check (option int)) "missing preserved" None col.(1);
  Alcotest.(check (option int)) "low bucket" (Some 0) col.(0);
  Alcotest.(check (option int)) "high bucket" (Some 2) col.(3);
  (* Labels spell sub-ranges. *)
  Alcotest.(check bool) "range labels" true
    (String.length (Relation.Attribute.value_label attr 0) > 2)

let test_column_distinct_labels_under_ties () =
  (* Heavy ties: equal-frequency cut points coincide; labels must still be
     distinct so Attribute.make accepts them. *)
  let values = Array.make 50 (Some 1.0) in
  let attr, _ =
    Relation.Discretize.column ~bins:4 ~name:"tied" values
  in
  Alcotest.(check int) "still four buckets" 4
    (Relation.Attribute.cardinality attr)

let test_cut_points_rejects () =
  Alcotest.check_raises "nan"
    (Invalid_argument "Discretize.cut_points: NaN value") (fun () ->
      ignore
        (Relation.Discretize.cut_points Relation.Discretize.Equal_width ~bins:2
           [| Float.nan |]));
  Alcotest.check_raises "no values"
    (Invalid_argument "Discretize.cut_points: no values") (fun () ->
      ignore
        (Relation.Discretize.cut_points Relation.Discretize.Equal_width ~bins:2
           [||]))

let prop_discretize_covers =
  qcheck ~count:100 "every value lands in a valid bucket"
    QCheck2.Gen.(list_size (int_range 1 30) (float_range (-100.) 100.))
    (fun values ->
      let arr = Array.of_list values in
      let bins = 1 + (Array.length arr mod 5) in
      let cuts =
        Relation.Discretize.cut_points Relation.Discretize.Equal_frequency
          ~bins arr
      in
      Array.for_all
        (fun x ->
          let b = Relation.Discretize.bucket_of cuts x in
          b >= 0 && b < bins)
        arr)

let suite =
  [
    ("model roundtrip (synthetic)", `Quick, test_roundtrip_synthetic);
    ("model roundtrip (Fig 1 labels)", `Quick, test_roundtrip_fig1_labels);
    ("model roundtrip (awkward labels)", `Quick, test_roundtrip_awkward_labels);
    ("restored model infers identically", `Quick,
     test_restored_model_infers_identically);
    ("model file roundtrip", `Quick, test_file_roundtrip);
    ("deserialization rejects garbage", `Quick, test_of_string_rejects_garbage);
    ("learned BN7 model round-trips byte for byte", `Quick,
     test_roundtrip_exact_bn7);
    ("learned models match golden digests", `Quick, test_golden_model_bytes);
    ("BN7 at θ=0.01 truncates at size 3", `Quick, test_golden_truncated_mine);
    ("deserialization rejects an unnormalized CPD", `Quick,
     test_of_string_rejects_unnormalized_cpd);
    ("deserialization rejects unservable models", `Quick,
     test_of_string_rejects_unservable);
    ("equal-width cut points", `Quick, test_cut_points_equal_width);
    ("equal-frequency cut points", `Quick, test_cut_points_equal_frequency);
    ("bucket_of", `Quick, test_bucket_of);
    ("column discretization", `Quick, test_column_roundtrip);
    ("distinct labels under ties", `Quick, test_column_distinct_labels_under_ties);
    ("cut point validation", `Quick, test_cut_points_rejects);
    prop_discretize_covers;
  ]
