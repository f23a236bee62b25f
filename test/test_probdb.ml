(* Tests for the probabilistic-database substrate: blocks, predicates, and
   the disjoint-independent database (possible worlds + query answers). *)

open Helpers

let est_for tup joint_weights : Mrsl.Gibbs.estimate =
  (* Build a Gibbs estimate by hand through estimate_of_points-compatible
     structure: we use the sampler path to keep the invariants honest. *)
  let model =
    Mrsl.Model.learn_points dependent_schema (dependent_points 50)
  in
  let s = Mrsl.Gibbs.sampler model in
  (* Synthesize sample points proportional to the requested weights. *)
  let missing = Array.of_list (Relation.Tuple.missing tup) in
  let cards = Array.map (fun _ -> 2) missing in
  let points = ref [] in
  Relation.Domain.iter cards (fun code values ->
      let point = Array.map (function Some v -> v | None -> 0) tup in
      Array.iteri (fun k a -> point.(a) <- values.(k)) missing;
      for _ = 1 to joint_weights.(code) do
        points := point :: !points
      done);
  Mrsl.Gibbs.estimate_of_points s tup !points

let test_block_of_estimate () =
  let tup : Relation.Tuple.t = [| Some 1; None; None |] in
  let est = est_for tup [| 6; 2; 1; 1 |] in
  let block = Probdb.Block.of_estimate est in
  Alcotest.(check int) "four alternatives" 4
    (Probdb.Block.alternative_count block);
  let top = Probdb.Block.top block in
  Alcotest.(check (array int)) "top completion" [| 1; 0; 0 |] top.point;
  check_float ~eps:1e-3 "top probability" 0.6 top.prob;
  (* Alternatives are sorted descending. *)
  let probs =
    List.map (fun (a : Probdb.Block.alternative) -> a.prob) block.alternatives
  in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> Float.compare b a) probs = probs)

let test_block_truncation () =
  let tup : Relation.Tuple.t = [| Some 1; None; None |] in
  let est = est_for tup [| 90; 8; 1; 1 |] in
  let block = Probdb.Block.of_estimate ~min_prob:0.05 est in
  Alcotest.(check int) "kept two" 2 (Probdb.Block.alternative_count block);
  Alcotest.(check bool) "records dropped mass" true
    (block.truncated_mass > 0.015 && block.truncated_mass < 0.025)

let test_block_of_point () =
  let block = Probdb.Block.of_point [| 0; 1; 0 |] in
  Alcotest.(check int) "one alternative" 1 (Probdb.Block.alternative_count block);
  check_float "certain" 1.0 (Probdb.Block.top block).prob;
  check_float "prob_of_point" 1.0
    (Probdb.Block.prob_of_point block [| 0; 1; 0 |]);
  check_float "prob of absent point" 0.
    (Probdb.Block.prob_of_point block [| 1; 1; 0 |])

let test_predicate_eval () =
  let open Probdb.Predicate in
  let p = And (Eq (0, 1), Or (Neq (1, 0), In (2, [ 0; 1 ]))) in
  Alcotest.(check bool) "holds" true (eval p [| 1; 0; 1 |]);
  Alcotest.(check bool) "eq fails" false (eval p [| 0; 0; 1 |]);
  Alcotest.(check bool) "true" true (eval True [| 9; 9; 9 |]);
  Alcotest.(check bool) "not" false (eval (Not True) [| 0; 0; 0 |]);
  Alcotest.(check bool) "conj empty" true (eval (conj []) [| 0 |]);
  Alcotest.(check bool) "disj empty" false (eval (disj []) [| 0 |])

let test_predicate_labels () =
  let p = Probdb.Predicate.eq_label fig1_schema "age" "30" in
  Alcotest.(check bool) "label atom" true (Probdb.Predicate.eval p [| 1; 0; 0; 0 |])

(* A tiny hand-built database: one certain block and one uncertain block
   over the dependent 3-attribute schema. *)
let hand_db () =
  let certain = Probdb.Block.of_point [| 0; 0; 0 |] in
  let est = est_for [| Some 1; None; None |] [| 1; 1; 1; 1 |] in
  let uncertain = Probdb.Block.of_estimate est in
  Probdb.Pdb.make dependent_schema [ certain; uncertain ]

let test_pdb_possible_worlds () =
  let db = hand_db () in
  check_float "worlds = 1 * 4" 4. (Probdb.Pdb.possible_worlds db)

let test_pdb_expected_count () =
  let db = hand_db () in
  (* a0 = 1 holds for every alternative of block 2 only. *)
  check_float ~eps:1e-6 "expected count" 1.0
    (Probdb.Pdb.expected_count db (Probdb.Predicate.Eq (0, 1)));
  (* a1 = 0: certain block yes (1.0) + uncertain block 0.5. *)
  check_float ~eps:1e-3 "expected count mixed" 1.5
    (Probdb.Pdb.expected_count db (Probdb.Predicate.Eq (1, 0)))

let test_pdb_prob_exists () =
  let db = hand_db () in
  (* a1 = 1 never holds in block 1, holds w.p. 0.5 in block 2. *)
  check_float ~eps:1e-3 "exists" 0.5
    (Probdb.Pdb.prob_exists db (Probdb.Predicate.Eq (1, 1)));
  check_float "exists certain" 1.0
    (Probdb.Pdb.prob_exists db (Probdb.Predicate.Eq (0, 0)))

let test_pdb_tuple_prob () =
  let db = hand_db () in
  check_float ~eps:1e-3 "block marginal" 0.5
    (Probdb.Pdb.tuple_prob db (Probdb.Predicate.Eq (2, 0)) 1);
  Alcotest.check_raises "range"
    (Invalid_argument "Pdb.tuple_prob: block index out of range") (fun () ->
      ignore (Probdb.Pdb.tuple_prob db Probdb.Predicate.True 7))

let test_pdb_most_probable_world () =
  let db = hand_db () in
  let world, logp = Probdb.Pdb.most_probable_world db in
  Alcotest.(check int) "one point per block" 2 (Array.length world);
  Alcotest.(check (array int)) "certain block choice" [| 0; 0; 0 |] world.(0);
  Alcotest.(check bool) "finite log prob" true (Float.is_finite logp);
  (* Modal world probability: 1.0 * 0.25 (uniform over 4). *)
  check_float ~eps:2e-2 "log prob value" (log 0.25) logp

let test_pdb_world_log_prob_invalid_choice () =
  let db = hand_db () in
  let world = [| [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
  (* Second choice has a0 = 0, impossible in the uncertain block. *)
  Alcotest.(check bool) "impossible world" true
    (Probdb.Pdb.world_log_prob db world = neg_infinity)

let test_pdb_sample_world () =
  let db = hand_db () in
  let r = rng () in
  for _ = 1 to 50 do
    let world = Probdb.Pdb.sample_world r db in
    Alcotest.(check (array int)) "certain block" [| 0; 0; 0 |] world.(0);
    Alcotest.(check int) "uncertain keeps evidence" 1 world.(1).(0)
  done

let test_pdb_derive_end_to_end () =
  (* The paper's full pipeline: learn from Fig-1-like data, derive a
     probabilistic DB for a relation with incomplete tuples. *)
  let complete = dependent_points 300 in
  let incomplete : Relation.Tuple.t list =
    [ [| Some 1; None; None |]; [| None; Some 0; None |] ]
  in
  let inst =
    Relation.Instance.make dependent_schema
      (Array.to_list (Array.map Relation.Tuple.of_point complete) @ incomplete)
  in
  let model = Mrsl.Model.learn inst in
  let db =
    Probdb.Pdb.derive
      ~config:{ burn_in = 20; samples = 300 }
      (rng ()) model inst
  in
  Alcotest.(check int) "one block per tuple" 302 (Probdb.Pdb.block_count db);
  (* The derived block for (1,?,?) must favor a1 = 1 (the dependency). *)
  let blocks = Probdb.Pdb.blocks db in
  let block = blocks.(300) in
  let top = Probdb.Block.top block in
  Alcotest.(check int) "evidence kept" 1 top.point.(0);
  Alcotest.(check int) "dependency in top completion" 1 top.point.(1)

let test_pdb_derive_schema_mismatch () =
  let model = Mrsl.Model.learn_points dependent_schema (dependent_points 20) in
  let other = Relation.Schema.of_cardinalities [ 2; 2 ] in
  let inst = Relation.Instance.of_points other [ [| 0; 0 |] ] in
  Alcotest.check_raises "schema mismatch"
    (Invalid_argument "Pdb.derive: instance schema does not match model schema")
    (fun () -> ignore (Probdb.Pdb.derive (rng ()) model inst))

(* Golden digests of derivations whose sampled output must not move:
   BN10 (derive's shape), a 60-tuple relation missing 1 to 5 cells per
   tuple, one fixed seed. Only multi-missing blocks are digested:
   single-missing blocks are Algorithm 2's exact conditionals, checked
   against [Infer_single] in the consistency suite. The digests were
   recorded when every incomplete tuple still ran a Gibbs chain. A
   single-missing tuple subsumes no other tuple, so it is a DAG leaf that
   donates nothing, and answering it without a chain leaves every other
   block bit for bit as it was. *)
let golden_config = { Mrsl.Gibbs.burn_in = 20; samples = 150 }

let golden_fixture =
  lazy
    (let entry = Bayesnet.Catalog.find "BN10" in
     let r = Prob.Rng.create 2011 in
     let net = Bayesnet.Network.generate r entry.topology in
     let model =
       Mrsl.Model.learn
         ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
         (Bayesnet.Network.sample_instance r net 2000)
     in
     let arity = Bayesnet.Topology.size entry.topology in
     let tuples =
       List.init 60 (fun _ ->
           let tup =
             Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
           in
           let k = 1 + Prob.Rng.int r (arity - 1) in
           List.iter
             (fun a -> tup.(a) <- None)
             (Prob.Rng.sample_without_replacement r k arity);
           tup)
     in
     (model, tuples))

let multi_missing_digest db =
  let buf = Buffer.create 4096 and n = ref 0 in
  Array.iter
    (fun (b : Probdb.Block.t) ->
      if Relation.Tuple.missing_count b.source >= 2 then begin
        incr n;
        Array.iter
          (function
            | Some v -> Printf.bprintf buf "%d," v
            | None -> Buffer.add_string buf "?,")
          b.source;
        List.iter
          (fun (a : Probdb.Block.alternative) ->
            Array.iter (Printf.bprintf buf "%d.") a.point;
            Printf.bprintf buf "%h;" a.prob)
          b.alternatives;
        Buffer.add_char buf '\n'
      end)
    (Probdb.Pdb.blocks db);
  (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_golden_multi_missing_blocks () =
  let model, tuples = Lazy.force golden_fixture in
  let inst = Relation.Instance.make (Mrsl.Model.schema model) tuples in
  List.iter
    (fun (strategy, expected) ->
      let db =
        Probdb.Pdb.derive ~config:golden_config ~strategy
          (Prob.Rng.create 2011) model inst
      in
      let n, digest = multi_missing_digest db in
      Alcotest.(check int) "multi-missing blocks" 49 n;
      Alcotest.(check string)
        (Mrsl.Workload.strategy_name strategy ^ " digest")
        expected digest)
    [
      (Mrsl.Workload.Tuple_dag, "2a588f4f7dfc38be0c5e5fe7360e37f3");
      (Mrsl.Workload.Tuple_at_a_time, "937c5653238b7ba1e26c5389086323b0");
    ]

let test_golden_fault_list () =
  let model, tuples = Lazy.force golden_fixture in
  let contained =
    Mrsl.Fault_inject.with_config
      { Mrsl.Fault_inject.disabled with seed = 7; task_failure_rate = 0.15 }
      (fun () ->
        Mrsl.Workload.run_contained ~config:golden_config
          ~telemetry:(Mrsl.Telemetry.create ())
          ~policy:Mrsl.Workload.Skip_and_report ~domains:1 ~seed:2011 model
          tuples)
  in
  (* "node" for a task that raised the injected fault, "node<root" for a
     node skipped because its ancestor [root] raised. *)
  let faults =
    List.map
      (fun (f : Mrsl.Workload.tuple_fault) ->
        match (f.upstream, f.error.code) with
        | None, "fault_inject.task" -> string_of_int f.node
        | Some r, "task.upstream_failed" -> Printf.sprintf "%d<%d" f.node r
        | _, code -> Printf.sprintf "%d: unexpected %s" f.node code)
      contained.faults
  in
  Alcotest.(check (list string))
    "Skip_and_report faults"
    [
      "0<45"; "2<45"; "6<40"; "8<45"; "10"; "13<40"; "14<40"; "16<45";
      "22"; "23<45"; "24"; "25<45"; "29<45"; "30<45"; "31<45"; "32<45";
      "33"; "37<45"; "38<45"; "39<45"; "40"; "41<45"; "42<33"; "45";
      "47<22"; "49<33"; "55<22";
    ]
    faults

(* Property: expected_count is linear — for any database and predicate it
   equals the sum of block marginals, and prob_exists never exceeds it. *)
let prop_exists_le_expected =
  qcheck ~count:40 "P(exists) <= E[count]"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let est = est_for [| Some 1; None; None |]
          [| 1 + Prob.Rng.int r 5; 1 + Prob.Rng.int r 5;
             1 + Prob.Rng.int r 5; 1 + Prob.Rng.int r 5 |]
      in
      let db =
        Probdb.Pdb.make dependent_schema
          [ Probdb.Block.of_estimate est; Probdb.Block.of_point [| 1; 1; 0 |] ]
      in
      let pred = Probdb.Predicate.Eq (1, 1) in
      Probdb.Pdb.prob_exists db pred
      <= Probdb.Pdb.expected_count db pred +. 1e-9)

let suite =
  [
    ("block from estimate", `Quick, test_block_of_estimate);
    ("block truncation", `Quick, test_block_truncation);
    ("certain block", `Quick, test_block_of_point);
    ("predicate evaluation", `Quick, test_predicate_eval);
    ("predicate from labels", `Quick, test_predicate_labels);
    ("possible worlds count", `Quick, test_pdb_possible_worlds);
    ("expected count", `Quick, test_pdb_expected_count);
    ("prob exists", `Quick, test_pdb_prob_exists);
    ("tuple prob", `Quick, test_pdb_tuple_prob);
    ("most probable world", `Quick, test_pdb_most_probable_world);
    ("impossible world log prob", `Quick, test_pdb_world_log_prob_invalid_choice);
    ("sample world", `Quick, test_pdb_sample_world);
    ("derive end-to-end", `Quick, test_pdb_derive_end_to_end);
    ("derive schema mismatch", `Quick, test_pdb_derive_schema_mismatch);
    ("golden: multi-missing blocks", `Quick, test_golden_multi_missing_blocks);
    ("golden: Skip_and_report faults", `Quick, test_golden_fault_list);
    prop_exists_le_expected;
  ]

(* Export *)

let test_export_csv_shape () =
  let db = hand_db () in
  let csv = Probdb.Export.to_csv db in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  (* Header + one row per alternative (1 + 4). *)
  Alcotest.(check int) "row count" (1 + 1 + 4) (List.length lines);
  (match lines with
  | header :: _ ->
      Alcotest.(check string) "header" "block,a0,a1,a2,prob" header
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check bool) "fig1-style ids" true
    (Astring_like.contains csv "t2.1")

let test_export_probabilities_parse_back () =
  let db = hand_db () in
  let csv = Probdb.Export.to_csv db in
  let rows =
    String.split_on_char '\n' csv
    |> List.filter (fun l -> l <> "")
    |> List.tl
  in
  let total_block2 =
    List.fold_left
      (fun acc row ->
        match Relation.Csv_io.parse_line row with
        | id :: rest when String.length id >= 2 && String.sub id 0 2 = "t2" ->
            acc +. float_of_string (List.nth rest (List.length rest - 1))
        | _ -> acc)
      0. rows
  in
  check_float ~eps:1e-3 "block 2 mass" 1.0 total_block2

let test_export_summary () =
  let db = hand_db () in
  let s = Probdb.Export.summary db in
  Alcotest.(check bool) "mentions blocks" true
    (Astring_like.contains s "2 blocks");
  Alcotest.(check bool) "mentions worlds" true
    (Astring_like.contains s "4 possible worlds")

let test_export_file () =
  let db = hand_db () in
  let path = Filename.temp_file "mrsl_pdb" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Probdb.Export.to_file path db;
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "file matches string" (Probdb.Export.to_csv db)
        contents)

let suite =
  suite
  @ [
      ("export csv shape", `Quick, test_export_csv_shape);
      ("export probabilities sum", `Quick, test_export_probabilities_parse_back);
      ("export summary", `Quick, test_export_summary);
      ("export to file", `Quick, test_export_file);
    ]
