(* Tests for the paper's future-work extensions: PK–FK joins (Section
   I-B), three-valued predicates, and lazy query-targeted inference
   (Section VIII). *)

open Helpers

(* Join *)

let dim_schema =
  Relation.Schema.make
    [
      Relation.Attribute.make "dept" [ "eng"; "sales" ];
      Relation.Attribute.make "floor" [ "f1"; "f2" ];
      Relation.Attribute.make "budget" [ "low"; "high" ];
    ]

let fact_schema =
  Relation.Schema.make
    [
      Relation.Attribute.make "name" [ "ann"; "bob"; "cat" ];
      Relation.Attribute.make "dept" [ "eng"; "sales"; "hr" ];
    ]

let dim () =
  Relation.Instance.make dim_schema
    [
      [| Some 0; Some 1; Some 1 |]; (* eng, f2, high *)
      [| Some 1; Some 0; None |]; (* sales, f1, ? *)
    ]

let fact () =
  Relation.Instance.make fact_schema
    [
      [| Some 0; Some 0 |]; (* ann, eng *)
      [| Some 1; Some 1 |]; (* bob, sales *)
      [| Some 2; None |]; (* cat, ? *)
      [| Some 0; Some 2 |]; (* ann, hr — dangling reference *)
    ]

let test_join_basic () =
  let joined =
    Relation.Join.primary_foreign ~fact:(fact ()) ~fk:1 ~dim:(dim ()) ~pk:0
  in
  let schema = Relation.Instance.schema joined in
  Alcotest.(check int) "arity = fact + dim - key" 4 (Relation.Schema.arity schema);
  Alcotest.(check int) "renamed columns" 2
    (Relation.Schema.index_of schema "dept_floor");
  let tuples = Relation.Instance.tuples joined in
  (* ann/eng picks up (f2, high). *)
  Alcotest.(check bool) "matched row extended" true
    (Relation.Tuple.equal tuples.(0) [| Some 0; Some 0; Some 1; Some 1 |]);
  (* bob/sales picks up (f1, ?) — dimension gap preserved. *)
  Alcotest.(check bool) "dimension gap preserved" true
    (Relation.Tuple.equal tuples.(1) [| Some 1; Some 1; Some 0; None |]);
  (* cat has no fk: appended attributes missing. *)
  Alcotest.(check bool) "missing fk" true
    (Relation.Tuple.equal tuples.(2) [| Some 2; None; None; None |]);
  (* hr is dangling: appended attributes missing. *)
  Alcotest.(check bool) "dangling fk" true
    (Relation.Tuple.equal tuples.(3) [| Some 0; Some 2; None; None |])

let test_join_rejects_bad_key () =
  let dup =
    Relation.Instance.make dim_schema
      [ [| Some 0; Some 0; Some 0 |]; [| Some 0; Some 1; Some 1 |] ]
  in
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Join.primary_foreign: duplicate dimension key")
    (fun () ->
      ignore
        (Relation.Join.primary_foreign ~fact:(fact ()) ~fk:1 ~dim:dup ~pk:0));
  let holey =
    Relation.Instance.make dim_schema [ [| None; Some 0; Some 0 |] ]
  in
  Alcotest.check_raises "missing key"
    (Invalid_argument "Join.primary_foreign: dimension key column has missing values")
    (fun () ->
      ignore
        (Relation.Join.primary_foreign ~fact:(fact ()) ~fk:1 ~dim:holey ~pk:0))

let test_join_feeds_learning () =
  (* Correlations across relations become learnable after the join. *)
  let joined =
    Relation.Join.primary_foreign ~fact:(fact ()) ~fk:1 ~dim:(dim ()) ~pk:0
  in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.2 }
      joined
  in
  Alcotest.(check int) "one lattice per joined attribute" 4
    (Array.length (Mrsl.Model.lattices model))

(* eval_partial *)

let test_eval_partial_atoms () =
  let open Probdb.Predicate in
  let tup : Relation.Tuple.t = [| Some 1; None |] in
  Alcotest.(check (option bool)) "decided eq" (Some true)
    (eval_partial (Eq (0, 1)) tup);
  Alcotest.(check (option bool)) "decided neq" (Some false)
    (eval_partial (Neq (0, 1)) tup);
  Alcotest.(check (option bool)) "undecided" None (eval_partial (Eq (1, 0)) tup);
  Alcotest.(check (option bool)) "in decided" (Some true)
    (eval_partial (In (0, [ 0; 1 ])) tup)

let test_eval_partial_connectives () =
  let open Probdb.Predicate in
  let tup : Relation.Tuple.t = [| Some 1; None |] in
  (* Short-circuiting: false ∧ unknown = false; true ∨ unknown = true. *)
  Alcotest.(check (option bool)) "and short-circuit" (Some false)
    (eval_partial (And (Eq (0, 0), Eq (1, 0))) tup);
  Alcotest.(check (option bool)) "or short-circuit" (Some true)
    (eval_partial (Or (Eq (0, 1), Eq (1, 0))) tup);
  Alcotest.(check (option bool)) "and unknown" None
    (eval_partial (And (Eq (0, 1), Eq (1, 0))) tup);
  Alcotest.(check (option bool)) "not unknown" None
    (eval_partial (Not (Eq (1, 0))) tup)

let prop_eval_partial_sound =
  (* Whenever eval_partial decides, every completion agrees. *)
  qcheck ~count:150 "eval_partial is sound"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let tup =
        Array.init 3 (fun _ ->
            if Prob.Rng.bool r then Some (Prob.Rng.int r 2) else None)
      in
      let rec gen_pred depth =
        if depth = 0 || Prob.Rng.int r 3 = 0 then
          Probdb.Predicate.Eq (Prob.Rng.int r 3, Prob.Rng.int r 2)
        else
          match Prob.Rng.int r 3 with
          | 0 -> Probdb.Predicate.And (gen_pred (depth - 1), gen_pred (depth - 1))
          | 1 -> Probdb.Predicate.Or (gen_pred (depth - 1), gen_pred (depth - 1))
          | _ -> Probdb.Predicate.Not (gen_pred (depth - 1))
      in
      let pred = gen_pred 3 in
      match Probdb.Predicate.eval_partial pred tup with
      | None -> true
      | Some expected ->
          let ok = ref true in
          let missing = Array.of_list (Relation.Tuple.missing tup) in
          let cards = Array.map (fun _ -> 2) missing in
          Relation.Domain.iter cards (fun _ values ->
              let point = Array.map (function Some v -> v | None -> 0) tup in
              Array.iteri (fun k a -> point.(a) <- values.(k)) missing;
              if Probdb.Predicate.eval pred point <> expected then ok := false);
          !ok)

(* Lazy pdb *)

let lazy_fixture () =
  let model = Mrsl.Model.learn_points dependent_schema (dependent_points 300) in
  let inst =
    Relation.Instance.make dependent_schema
      ([ Relation.Tuple.of_point [| 0; 0; 0 |];
         Relation.Tuple.of_point [| 1; 1; 1 |] ]
      @ [ [| Some 1; None; Some 0 |]; [| None; None; Some 1 |] ])
  in
  ( model,
    inst,
    Probdb.Lazy_pdb.create
      ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 200 }
      (rng ()) model inst )

let test_lazy_no_upfront_inference () =
  let _, _, view = lazy_fixture () in
  Alcotest.(check int) "nothing materialized" 0
    (Probdb.Lazy_pdb.materialized_count view);
  Alcotest.(check int) "tuple count" 4 (Probdb.Lazy_pdb.tuple_count view)

let test_lazy_decided_queries_skip_sampling () =
  let _, _, view = lazy_fixture () in
  (* a2 is known in every tuple: the query is decided everywhere. *)
  let pred = Probdb.Predicate.Eq (2, 0) in
  let count = Probdb.Lazy_pdb.expected_count view pred in
  check_float "decided count" 2. count;
  Alcotest.(check int) "still nothing materialized" 0
    (Probdb.Lazy_pdb.materialized_count view)

let test_lazy_partial_materialization () =
  let _, _, view = lazy_fixture () in
  (* a0 = 1 is decided for three tuples, undecided only for the last. *)
  let pred = Probdb.Predicate.Eq (0, 1) in
  let _ = Probdb.Lazy_pdb.expected_count view pred in
  Alcotest.(check int) "one block materialized" 1
    (Probdb.Lazy_pdb.materialized_count view);
  (* Re-running the same query must not re-infer. *)
  let _ = Probdb.Lazy_pdb.expected_count view pred in
  Alcotest.(check int) "cache reused" 1
    (Probdb.Lazy_pdb.materialized_count view)

let test_lazy_agrees_with_eager () =
  (* A noisy a0 -> a1 dependency (a third of the rows flip a1). Under the
     fixture's hard a1 = a0, the chain for <?, ?, 1> never leaves the mode
     it starts in, so two samplers on different RNG streams agree only
     when both happen to start in the same mode. *)
  let model =
    Mrsl.Model.learn_points dependent_schema
      (Array.init 600 (fun i ->
           let a0 = i mod 2 in
           [| a0; (if i mod 3 = 1 then 1 - a0 else a0); i / 2 mod 2 |]))
  in
  let _, inst, _ = lazy_fixture () in
  let view =
    Probdb.Lazy_pdb.create
      ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 200 }
      (rng ()) model inst
  in
  let pred = Probdb.Predicate.And (Probdb.Predicate.Eq (0, 1), Probdb.Predicate.Eq (1, 1)) in
  let lazy_count = Probdb.Lazy_pdb.expected_count view pred in
  let eager =
    Probdb.Pdb.derive
      ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 200 }
      (rng ()) model inst
  in
  let eager_count = Probdb.Pdb.expected_count eager pred in
  (* Same model, same seed policy differs per block ordering; allow
     sampling noise. *)
  check_float ~eps:0.15 "lazy ≈ eager" eager_count lazy_count

(* A single-missing tuple takes Algorithm 2's vote on both paths, so its
   lazy and eager blocks are the same floats, under every voting method,
   and equal the block of [Infer_single]'s answer. *)
let test_lazy_eager_single_missing_identical () =
  let model, _, _ = lazy_fixture () in
  let tuples : Relation.Tuple.t list =
    [
      [| Some 1; None; Some 0 |]; [| None; Some 0; Some 1 |];
      [| Some 0; Some 1; None |]; [| None; None; Some 1 |];
      [| Some 1; None; Some 0 |];
    ]
  in
  let inst = Relation.Instance.make dependent_schema tuples in
  let config = { Mrsl.Gibbs.burn_in = 10; samples = 200 } in
  List.iter
    (fun method_ ->
      let eager =
        Probdb.Pdb.blocks
          (Probdb.Pdb.derive ~config ~method_ (rng ()) model inst)
      in
      let view =
        Probdb.Lazy_pdb.create ~config ~method_ (Prob.Rng.create 5) model inst
      in
      let lazy_ = Probdb.Pdb.blocks (Probdb.Lazy_pdb.force view) in
      List.iteri
        (fun i tup ->
          match Relation.Tuple.missing tup with
          | [ a ] ->
              let served =
                Probdb.Block.of_estimate
                  {
                    Mrsl.Gibbs.tuple = tup;
                    missing = [ a ];
                    cards = [| 2 |];
                    joint = Mrsl.Infer_single.infer ~method_ model tup a;
                    samples_used = 0;
                  }
              in
              if lazy_.(i) <> eager.(i) then
                Alcotest.failf "tuple %d: lazy and eager blocks differ" i;
              if eager.(i) <> served then
                Alcotest.failf "tuple %d: block is not Algorithm 2's answer" i
          | _ -> ())
        tuples)
    Mrsl.Voting.all_methods

let test_lazy_force () =
  let _, _, view = lazy_fixture () in
  let db = Probdb.Lazy_pdb.force view in
  Alcotest.(check int) "full database" 4 (Probdb.Pdb.block_count db);
  Alcotest.(check int) "all incomplete materialized" 2
    (Probdb.Lazy_pdb.materialized_count view)

let test_lazy_prob_exists () =
  let _, _, view = lazy_fixture () in
  let p = Probdb.Lazy_pdb.prob_exists view (Probdb.Predicate.Eq (2, 1)) in
  (* Tuple 2 (point 1,1,1) and tuple 4 (a2=1 known) guarantee existence. *)
  check_float "certain existence" 1.0 p

let suite =
  [
    ("pk-fk join", `Quick, test_join_basic);
    ("pk-fk join key validation", `Quick, test_join_rejects_bad_key);
    ("pk-fk join feeds learning", `Quick, test_join_feeds_learning);
    ("eval_partial atoms", `Quick, test_eval_partial_atoms);
    ("eval_partial connectives", `Quick, test_eval_partial_connectives);
    prop_eval_partial_sound;
    ("lazy view defers inference", `Quick, test_lazy_no_upfront_inference);
    ("decided queries skip sampling", `Quick,
     test_lazy_decided_queries_skip_sampling);
    ("partial materialization", `Quick, test_lazy_partial_materialization);
    ("lazy agrees with eager", `Quick, test_lazy_agrees_with_eager);
    ("lazy = eager on single-missing", `Quick,
     test_lazy_eager_single_missing_identical);
    ("force materializes everything", `Quick, test_lazy_force);
    ("lazy prob_exists", `Quick, test_lazy_prob_exists);
  ]
