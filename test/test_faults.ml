(* Tests for the fault-containment layer: the structured error taxonomy,
   the deterministic fault-injection harness, the lenient CSV reader and
   its malformed-row corpus, the inference degradation ladder, per-task
   containment in the work-stealing scheduler, and convergence-driven
   retries. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Error taxonomy *)

let test_error_to_string () =
  let e =
    Mrsl.Error.make Mrsl.Error.Input ~code:"csv.bad_row" "boom"
      ~context:[ ("file", "x.csv"); ("line", "3") ]
  in
  Alcotest.(check string)
    "rendered" "input/csv.bad_row: boom [file=x.csv, line=3]"
    (Mrsl.Error.to_string e);
  let bare = Mrsl.Error.make Mrsl.Error.Scheduler ~code:"c" "m" in
  Alcotest.(check string) "no context" "scheduler/c: m"
    (Mrsl.Error.to_string bare)

let test_error_of_exn () =
  let e = Mrsl.Error.of_exn (Invalid_argument "bad") in
  Alcotest.(check string) "invalid_argument class" "inference"
    (Mrsl.Error.class_name e.class_);
  Alcotest.(check string) "invalid_argument code" "invalid_argument" e.code;
  let f = Mrsl.Error.of_exn (Failure "nope") in
  Alcotest.(check string) "failure class" "input"
    (Mrsl.Error.class_name f.class_);
  let n = Mrsl.Error.of_exn Not_found in
  Alcotest.(check string) "other class" "scheduler"
    (Mrsl.Error.class_name n.class_);
  (* Mrsl_error payloads pass through untouched. *)
  let orig = Mrsl.Error.make Mrsl.Error.Model ~code:"k" "m" in
  Alcotest.(check bool) "payload passthrough" true
    (Mrsl.Error.of_exn (Mrsl.Error.Mrsl_error orig) == orig)

let test_error_guard () =
  (match Mrsl.Error.guard (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "ok" 42 v
  | Error _ -> Alcotest.fail "guard should succeed");
  match Mrsl.Error.guard (fun () -> failwith "x") with
  | Ok _ -> Alcotest.fail "guard should capture"
  | Error e -> Alcotest.(check string) "captured code" "failure" e.code

(* ------------------------------------------------------------------ *)
(* Fault injection harness *)

let cfg ?(seed = 11) ?(task = 0.) ?(csv = 0.) ?(nonconv = 0.) ?(voters = 0.)
    () =
  {
    Mrsl.Fault_inject.disabled with
    seed;
    task_failure_rate = task;
    csv_corruption_rate = csv;
    nonconvergence_rate = nonconv;
    voter_drop_rate = voters;
  }

let test_inject_validates_rates () =
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Fault_inject: task_failure_rate must be in [0, 1]")
    (fun () -> Mrsl.Fault_inject.configure (cfg ~task:1.5 ()));
  Alcotest.check_raises "rate < 0"
    (Invalid_argument "Fault_inject: csv_corruption_rate must be in [0, 1]")
    (fun () -> Mrsl.Fault_inject.configure (cfg ~csv:(-0.1) ()))

let test_inject_scoped_and_deterministic () =
  Alcotest.(check bool) "inactive by default" false
    (Mrsl.Fault_inject.active ());
  let decisions () =
    List.init 64 (fun i -> Mrsl.Fault_inject.should_fail_task ~node:i)
  in
  let a =
    Mrsl.Fault_inject.with_config (cfg ~task:0.3 ()) (fun () ->
        Alcotest.(check bool) "active inside scope" true
          (Mrsl.Fault_inject.active ());
        decisions ())
  in
  let b =
    Mrsl.Fault_inject.with_config (cfg ~task:0.3 ()) (fun () -> decisions ())
  in
  Alcotest.(check (list bool)) "same seed, same decisions" a b;
  Alcotest.(check bool) "some hit" true (List.mem true a);
  Alcotest.(check bool) "some miss" true (List.mem false a);
  let c =
    Mrsl.Fault_inject.with_config
      (cfg ~seed:99 ~task:0.3 ())
      (fun () -> decisions ())
  in
  Alcotest.(check bool) "different seed, different decisions" true (a <> c);
  (* The scope restores the previous (disabled) configuration, even when
     the body raises. *)
  Alcotest.(check bool) "restored" false (Mrsl.Fault_inject.active ());
  (try
     Mrsl.Fault_inject.with_config (cfg ~task:1.0 ()) (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false
    (Mrsl.Fault_inject.active ())

let test_inject_disabled_never_fires () =
  List.iter
    (fun i ->
      Alcotest.(check bool) "no task faults" false
        (Mrsl.Fault_inject.should_fail_task ~node:i);
      Alcotest.(check bool) "no csv faults" false
        (Mrsl.Fault_inject.should_corrupt_row ~line:i))
    (List.init 32 Fun.id)

(* ------------------------------------------------------------------ *)
(* CSV: malformed-row corpus, strict and lenient *)

let test_csv_strict_messages_preserved () =
  Alcotest.check_raises "ragged"
    (Failure "Csv_io.read_string: row 2 has 3 fields, expected 2") (fun () ->
      ignore (Relation.Csv_io.read_string "a,b\n1,2,3\n"));
  Alcotest.check_raises "empty" (Failure "Csv_io.read_string: empty document")
    (fun () -> ignore (Relation.Csv_io.read_string ""));
  Alcotest.check_raises "unterminated"
    (Failure "Csv_io.parse_line: unterminated quoted field") (fun () ->
      ignore (Relation.Csv_io.read_string "a,b\n\"x,2\n"))

let test_csv_bom_and_crlf () =
  let text = "\xef\xbb\xbfa,b\r\n1,2\r\n?,2\r\n" in
  let strict = Relation.Csv_io.read_string text in
  let lenient, errs = Relation.Csv_io.read_string_lenient text in
  Alcotest.(check int) "strict size" 2 (Relation.Instance.size strict);
  Alcotest.(check int) "lenient size" 2 (Relation.Instance.size lenient);
  Alcotest.(check int) "no errors" 0 (List.length errs);
  Alcotest.(check string) "BOM stripped from header" "a"
    (Relation.Attribute.name
       (Relation.Schema.attribute (Relation.Instance.schema strict) 0))

let test_csv_lenient_line_numbers () =
  (* Physical lines: 1 header, 2 blank, 3 ok, 4 ragged (1 field),
     5 unterminated quote, 6 ragged (3 fields), 7 ok. *)
  let text = "a,b\n\n1,2\nbad\n\"q,2\n1,2,3\n3,4\n" in
  let inst, errs = Relation.Csv_io.read_string_lenient text in
  Alcotest.(check int) "survivors" 2 (Relation.Instance.size inst);
  Alcotest.(check (list int)) "error lines" [ 4; 5; 6 ]
    (List.map (fun (e : Relation.Csv_io.row_error) -> e.line) errs);
  let causes =
    List.map
      (fun (e : Relation.Csv_io.row_error) ->
        Relation.Csv_io.cause_to_string e.cause)
      errs
  in
  Alcotest.(check (list string))
    "causes"
    [
      "ragged row: 1 fields, expected 2"; "unterminated quoted field";
      "ragged row: 3 fields, expected 2";
    ]
    causes;
  Alcotest.(check string) "default file name" "<string>:4: ragged row: 1 fields, expected 2"
    (Relation.Csv_io.row_error_to_string (List.hd errs))

let test_csv_unknown_value_with_schema () =
  let text = "age,edu,inc,nw\n99,HS,50K,100K\n20,HS,50K,100K\n" in
  Alcotest.check_raises "strict"
    (Failure "Csv_io.read_string: unknown value \"99\" for attribute age")
    (fun () ->
      ignore (Relation.Csv_io.read_string ~schema:fig1_schema text));
  let inst, errs =
    Relation.Csv_io.read_string_lenient ~schema:fig1_schema text
  in
  Alcotest.(check int) "one survivor" 1 (Relation.Instance.size inst);
  match errs with
  | [ { line = 2; cause = Unknown_value { field = "99"; attribute = "age" }; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "expected one Unknown_value error on line 2"

let test_csv_lenient_matches_strict_on_clean_input () =
  let strict = fig1_relation () in
  let lenient, errs =
    Relation.Csv_io.read_string_lenient ~schema:fig1_schema fig1_csv
  in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  Alcotest.(check int) "same size" (Relation.Instance.size strict)
    (Relation.Instance.size lenient);
  Array.iteri
    (fun i tup ->
      Alcotest.(check bool) "same tuple" true
        (tup = (Relation.Instance.tuples lenient).(i)))
    (Relation.Instance.tuples strict)

let test_csv_injected_corruption_contained () =
  let text = "a,b\n1,2\n3,4\n1,4\n3,2\n" in
  let schema = Relation.Instance.schema (Relation.Csv_io.read_string text) in
  Mrsl.Fault_inject.with_config (cfg ~csv:1.0 ()) (fun () ->
      let corrupted, lines = Mrsl.Fault_inject.corrupt_csv text in
      Alcotest.(check (list int)) "all data lines hit" [ 2; 3; 4; 5 ] lines;
      (* The header is never corrupted. *)
      Alcotest.(check string) "header intact" "a,b"
        (List.hd (String.split_on_char '\n' corrupted));
      (* Deterministic: same config, same document. *)
      let corrupted', _ = Mrsl.Fault_inject.corrupt_csv text in
      Alcotest.(check string) "deterministic" corrupted corrupted';
      (* Under an explicit schema every corruption shape is caught, and
         the reported lines are exactly the injected ones. *)
      let inst, errs =
        Relation.Csv_io.read_string_lenient ~schema corrupted
      in
      Alcotest.(check int) "no survivors" 0 (Relation.Instance.size inst);
      Alcotest.(check (list int)) "errors name the injected lines" lines
        (List.map (fun (e : Relation.Csv_io.row_error) -> e.line) errs))

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let trained_model () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
    dependent_schema (dependent_points 400)

let test_degrade_rungs () =
  let t = Mrsl.Telemetry.create () in
  let prior = Prob.Dist.of_weights [| 3.; 1. |] in
  let d = Mrsl.Infer_single.degrade ~telemetry:t ~card:2 (Some prior) in
  check_float "prior passes through" 0.75 (Prob.Dist.prob d 0);
  Alcotest.(check int) "marginal_prior counted" 1
    (Mrsl.Telemetry.counter t "degrade.marginal_prior");
  let u = Mrsl.Infer_single.degrade ~telemetry:t ~card:4 None in
  check_float "uniform" 0.25 (Prob.Dist.prob u 0);
  Alcotest.(check int) "uniform counted" 1
    (Mrsl.Telemetry.counter t "degrade.uniform")

let test_marginal_prior_is_root_cpd () =
  let model = trained_model () in
  match Mrsl.Infer_single.marginal_prior model 0 with
  | None -> Alcotest.fail "expected a marginal prior"
  | Some d ->
      check_dist_sums_to_one "prior normalized" d;
      (* a0 is uniform over {0,1} in [dependent_points]. *)
      check_float ~eps:0.02 "balanced marginal" 0.5 (Prob.Dist.prob d 0)

let test_voter_drop_degrades_not_raises () =
  let model = trained_model () in
  let tup : Relation.Tuple.t = [| Some 1; None; Some 0 |] in
  let t = Mrsl.Telemetry.create () in
  let d =
    Mrsl.Fault_inject.with_config (cfg ~voters:1.0 ()) (fun () ->
        Mrsl.Infer_single.infer ~telemetry:t model tup 1)
  in
  check_dist_sums_to_one "degraded estimate normalized" d;
  Alcotest.(check int) "ladder rung counted" 1
    (Mrsl.Telemetry.counter t "degrade.marginal_prior"
    + Mrsl.Telemetry.counter t "degrade.uniform");
  (* With every voter dropped, the estimate is the attribute's marginal
     prior, not the (sharp) conditional. *)
  match Mrsl.Infer_single.marginal_prior model 1 with
  | Some prior ->
      check_float "falls back to the root CPD" (Prob.Dist.prob prior 0)
        (Prob.Dist.prob d 0)
  | None -> Alcotest.fail "trained model must have a root CPD"

let test_fault_keys_discriminate_wide_tuples () =
  (* Regression: the voter-drop and forced-nonconvergence sites used to
     key decisions with [Stdlib.Hashtbl.hash tup], whose bounded
     traversal ignores the tail of wide tuples — tuples differing only
     past the traversal limit all received the SAME injection decision.
     The keys now come from the full-traversal mixed-radix evidence
     code, so at a fractional rate the decisions over tail-only variants
     must not be constant. *)
  let arity = 48 in
  let cards = Array.make arity 3 in
  let base = Array.init arity (fun _ -> Some 0) in
  let variants =
    List.init 27 (fun v ->
        let t = Array.copy base in
        t.(arity - 1) <- Some (v mod 3);
        t.(arity - 2) <- Some (v / 3 mod 3);
        t.(arity - 3) <- Some (v / 9 mod 3);
        t)
  in
  Mrsl.Fault_inject.with_config
    (cfg ~seed:42 ~nonconv:0.5 ~voters:0.5 ())
    (fun () ->
      let varies decide =
        let ds = List.map decide variants in
        List.exists Fun.id ds && List.exists not ds
      in
      Alcotest.(check bool) "voter-drop decisions vary across tail cells"
        true
        (varies (fun t ->
             Mrsl.Fault_inject.should_drop_voters
               ~key:(Mrsl.Posterior_cache.evidence_key ~cards t 0)));
      Alcotest.(check bool)
        "nonconvergence decisions vary across tail cells" true
        (varies (fun t ->
             Mrsl.Fault_inject.should_force_nonconvergence
               ~key:(Mrsl.Posterior_cache.tuple_code ~cards t))))

let test_infer_result_boundary () =
  let model = trained_model () in
  (* Attribute 0 is present, so the task is structurally invalid. *)
  match Mrsl.Infer_single.infer_result model [| Some 0; None; None |] 0 with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error e ->
      Alcotest.(check string) "class" "input"
        (Mrsl.Error.class_name e.class_);
      Alcotest.(check string) "code" "infer.bad_task" e.code

(* ------------------------------------------------------------------ *)
(* Scheduler fault containment *)

let small_workload () : Relation.Tuple.t list =
  [
    [| Some 0; None; None |];
    [| Some 1; None; None |];
    [| None; None; Some 0 |];
    [| None; None; None |];
    [| Some 0; Some 0; None |];
  ]

let run_config = { Mrsl.Gibbs.burn_in = 10; samples = 100 }

(* Find an injection seed that fails exactly one of the 5 DAG nodes and
   leaves at least one survivor, using the same pure predicate the
   scheduler consults — nothing about the failing set is hard-coded. *)
let containment_fixture model workload =
  let n = List.length workload in
  let rec find s =
    if s > 2000 then Alcotest.fail "no suitable injection seed found"
    else
      let c = cfg ~seed:s ~task:0.3 () in
      let own =
        Mrsl.Fault_inject.with_config c (fun () ->
            List.filter
              (fun i -> Mrsl.Fault_inject.should_fail_task ~node:i)
              (List.init n Fun.id))
      in
      if List.length own <> 1 then find (s + 1)
      else
        let contained =
          Mrsl.Fault_inject.with_config c (fun () ->
              Mrsl.Parallel.run_contained ~config:run_config ~domains:1
                ~policy:Mrsl.Parallel.Skip_and_report ~seed:17 model workload)
        in
        if contained.Mrsl.Parallel.result.estimates = [] then find (s + 1)
        else (c, own, contained)
  in
  find 0

let test_containment_skips_and_reports () =
  let model = trained_model () in
  let workload = small_workload () in
  let c, own, contained = containment_fixture model workload in
  ignore c;
  let faults = contained.Mrsl.Parallel.faults in
  Alcotest.(check bool) "at least one fault" true (faults <> []);
  Alcotest.(check int) "everything accounted for" 5
    (List.length contained.result.estimates + List.length faults);
  (* Exactly one fault is the task's own; the rest are upstream skips
     naming it as root cause. *)
  let own_node = List.hd own in
  List.iter
    (fun (f : Mrsl.Parallel.tuple_fault) ->
      if f.node = own_node then begin
        Alcotest.(check string) "own failure code" "fault_inject.task"
          f.error.code;
        Alcotest.(check bool) "no upstream for the root" true
          (f.upstream = None)
      end
      else begin
        Alcotest.(check string) "descendant code" "task.upstream_failed"
          f.error.code;
        Alcotest.(check bool) "upstream names the root" true
          (f.upstream = Some own_node)
      end)
    faults

let test_containment_bit_identical_survivors () =
  let model = trained_model () in
  let workload = small_workload () in
  let c, _, reference = containment_fixture model workload in
  (* Fault-free baseline with the same seed. *)
  let clean =
    Mrsl.Parallel.run ~config:run_config ~domains:1 ~seed:17 model workload
  in
  let check_against (contained : Mrsl.Parallel.contained) label =
    (* Same fault set as the domains:1 reference. *)
    Alcotest.(check (list int))
      (label ^ " same skipped nodes")
      (List.map (fun (f : Mrsl.Parallel.tuple_fault) -> f.node)
         reference.faults)
      (List.map (fun (f : Mrsl.Parallel.tuple_fault) -> f.node)
         contained.faults);
    (* Surviving estimates bit-identical to the fault-free run. *)
    List.iter
      (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
        match
          List.find_opt (fun (t, _) -> t = tup) clean.Mrsl.Workload.estimates
        with
        | None -> Alcotest.fail "survivor missing from fault-free run"
        | Some (_, (clean_est : Mrsl.Gibbs.estimate)) ->
            Alcotest.(check int)
              (label ^ " same sample count")
              clean_est.samples_used est.samples_used;
            Array.iteri
              (fun i p ->
                Alcotest.(check (float 0.))
                  (Printf.sprintf "%s joint[%d] bit-identical" label i)
                  (Prob.Dist.to_array clean_est.joint).(i)
                  p)
              (Prob.Dist.to_array est.joint))
      contained.result.estimates
  in
  check_against reference "domains:1";
  List.iter
    (fun domains ->
      let contained =
        Mrsl.Fault_inject.with_config c (fun () ->
            Mrsl.Parallel.run_contained ~config:run_config ~domains
              ~policy:Mrsl.Parallel.Skip_and_report ~seed:17 model workload)
      in
      check_against contained (Printf.sprintf "domains:%d" domains))
    [ 2; 4 ]

let test_containment_counts_telemetry () =
  let model = trained_model () in
  let workload = small_workload () in
  let c, _, reference = containment_fixture model workload in
  let t = Mrsl.Telemetry.create () in
  let contained =
    Mrsl.Fault_inject.with_config c (fun () ->
        Mrsl.Parallel.run_contained ~config:run_config ~domains:2
          ~telemetry:t ~policy:Mrsl.Parallel.Skip_and_report ~seed:17 model
          workload)
  in
  Alcotest.(check int) "task failures counted" 1
    (Mrsl.Telemetry.counter t "fault.task_failures");
  Alcotest.(check int) "skipped tuples counted"
    (List.length reference.faults)
    (Mrsl.Telemetry.counter t "fault.tuples_skipped");
  Alcotest.(check int) "upstream skips counted"
    (List.length reference.faults - 1)
    (Mrsl.Telemetry.counter t "fault.upstream_skipped");
  Alcotest.(check int) "consistent report"
    (List.length reference.faults)
    (List.length contained.faults)

let test_fail_fast_policy_raises () =
  let model = trained_model () in
  let workload = small_workload () in
  let c, _, _ = containment_fixture model workload in
  match
    Mrsl.Fault_inject.with_config c (fun () ->
        Mrsl.Parallel.run_contained ~config:run_config ~domains:2 ~seed:17
          model workload)
  with
  | _ -> Alcotest.fail "Fail_fast should re-raise the injected fault"
  | exception Mrsl.Error.Mrsl_error e ->
      Alcotest.(check string) "injected code" "fault_inject.task" e.code

let test_run_wrapper_unchanged () =
  (* The back-compat wrapper equals run_contained's result under
     Fail_fast with no injection. *)
  let model = trained_model () in
  let workload = small_workload () in
  let a =
    Mrsl.Parallel.run ~config:run_config ~domains:2 ~seed:4 model workload
  in
  let b =
    Mrsl.Parallel.run_contained ~config:run_config ~domains:2 ~seed:4 model
      workload
  in
  Alcotest.(check int) "no faults" 0 (List.length b.faults);
  List.iter2
    (fun (_, (ea : Mrsl.Gibbs.estimate)) (_, (eb : Mrsl.Gibbs.estimate)) ->
      check_float "same estimates" (Prob.Dist.prob ea.joint 0)
        (Prob.Dist.prob eb.joint 0))
    a.estimates b.result.estimates

(* A degraded conditional computed while voter drops are active must not
   outlive the fault window: a clean run after it has to equal a clean
   run on an identically learned model that never saw the fault. *)
let test_voter_drop_does_not_leak_into_clean_runs () =
  let entry = Bayesnet.Catalog.find "BN10" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 5000 in
  let learn () =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      data
  in
  let model = learn () and twin = learn () in
  let arity = Relation.Schema.arity (Mrsl.Model.schema model) in
  let workload =
    List.init 40 (fun _ ->
        let tup = Relation.Tuple.of_point (Bayesnet.Network.sample_point r net) in
        let missing = 1 + Prob.Rng.int r (arity - 1) in
        List.iter
          (fun a -> tup.(a) <- None)
          (Prob.Rng.sample_without_replacement r missing arity);
        tup)
  in
  let run m =
    (Mrsl.Parallel.run ~config:run_config ~domains:1
       ~telemetry:(Mrsl.Telemetry.create ()) ~seed:7 m workload)
      .estimates
  in
  ignore
    (Mrsl.Fault_inject.with_config
       { Mrsl.Fault_inject.disabled with seed = 7; voter_drop_rate = 1.0 }
       (fun () -> run model));
  let after = run model and clean = run twin in
  Alcotest.(check int) "same tuples" (List.length clean) (List.length after);
  List.iter2
    (fun (t, (ea : Mrsl.Gibbs.estimate)) (_, (eb : Mrsl.Gibbs.estimate)) ->
      if (ea.joint :> float array) <> (eb.joint :> float array) then
        Alcotest.failf "%s: post-fault estimate differs (TV %.3f)"
          (Relation.Tuple.to_string (Mrsl.Model.schema model) t)
          (Prob.Divergence.total_variation ea.joint eb.joint))
    after clean

(* ------------------------------------------------------------------ *)
(* Convergence-driven retries *)

let test_retry_success_single_attempt () =
  let model = trained_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let checked =
    Mrsl.Diagnostics.run_with_retries
      ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 200 }
      (Prob.Rng.create 3) sampler [| Some 0; None; None |]
  in
  Alcotest.(check bool) "converged" true checked.converged;
  Alcotest.(check int) "single attempt" 1 checked.attempts;
  Alcotest.(check int) "sweeps accounted" 210 checked.total_sweeps;
  Alcotest.(check bool) "rhat sane" true (checked.rhat <= 1.1);
  check_dist_sums_to_one "estimate normalized" checked.estimate.joint

let test_retry_budget_exhaustion () =
  let model = trained_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let t = Mrsl.Telemetry.create () in
  let checked =
    Mrsl.Fault_inject.with_config (cfg ~nonconv:1.0 ()) (fun () ->
        Mrsl.Diagnostics.run_with_retries
          ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 20 }
          ~telemetry:t (Prob.Rng.create 3) sampler [| Some 0; None; None |])
  in
  Alcotest.(check bool) "flagged, not raised" false checked.converged;
  (* 1 initial attempt + default max_retries with doubled draws:
     (10+20) + (10+40) + (10+80) sweeps. *)
  Alcotest.(check int) "attempts"
    (1 + Mrsl.Diagnostics.default_retry_policy.max_retries)
    checked.attempts;
  Alcotest.(check int) "sweeps accounted" 170 checked.total_sweeps;
  Alcotest.(check int) "retries counted" 2
    (Mrsl.Telemetry.counter t "gibbs.retries");
  Alcotest.(check int) "degradation counted" 1
    (Mrsl.Telemetry.counter t "degrade.nonconverged");
  check_dist_sums_to_one "degraded estimate still usable"
    checked.estimate.joint

let test_retry_sweep_budget_caps_attempts () =
  let model = trained_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let policy =
    {
      Mrsl.Diagnostics.default_retry_policy with
      max_retries = 10;
      max_total_sweeps = 100;
    }
  in
  let checked =
    Mrsl.Fault_inject.with_config (cfg ~nonconv:1.0 ()) (fun () ->
        Mrsl.Diagnostics.run_with_retries
          ~config:{ Mrsl.Gibbs.burn_in = 10; samples = 20 }
          ~policy (Prob.Rng.create 3) sampler [| Some 0; None; None |])
  in
  (* Attempt 1 costs 30 sweeps; attempt 2 would bring the total to 80,
     attempt 3 would exceed 100 — so exactly two attempts run. *)
  Alcotest.(check int) "sweep budget stops retries" 2 checked.attempts;
  Alcotest.(check bool) "within budget" true (checked.total_sweeps <= 100);
  Alcotest.(check bool) "flagged" false checked.converged

let test_retry_policy_validation () =
  let model = trained_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let bad policy msg =
    Alcotest.check_raises "policy validated" (Invalid_argument msg)
      (fun () ->
        ignore
          (Mrsl.Diagnostics.run_with_retries ~policy (Prob.Rng.create 1)
             sampler [| Some 0; None; None |]))
  in
  bad
    { Mrsl.Diagnostics.default_retry_policy with max_retries = -1 }
    "Diagnostics.run_with_retries: max_retries must be >= 0";
  bad
    { Mrsl.Diagnostics.default_retry_policy with max_total_sweeps = 0 }
    "Diagnostics.run_with_retries: max_total_sweeps must be >= 1"

let test_split_rhat_short_series_trivial () =
  let model = trained_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| Some 0; None; None |] in
  let points = List.init 4 (fun i -> [| 0; 0; i mod 2 |]) in
  check_float "fewer than 8 points is trivially converged" 1.0
    (Mrsl.Diagnostics.split_rhat sampler tup points)

let suite =
  [
    ("error to_string", `Quick, test_error_to_string);
    ("error of_exn classification", `Quick, test_error_of_exn);
    ("error guard", `Quick, test_error_guard);
    ("inject validates rates", `Quick, test_inject_validates_rates);
    ( "inject scoped and deterministic",
      `Quick,
      test_inject_scoped_and_deterministic );
    ("inject disabled never fires", `Quick, test_inject_disabled_never_fires);
    ("csv strict messages preserved", `Quick, test_csv_strict_messages_preserved);
    ("csv BOM and CRLF", `Quick, test_csv_bom_and_crlf);
    ("csv lenient line numbers", `Quick, test_csv_lenient_line_numbers);
    ("csv unknown value with schema", `Quick, test_csv_unknown_value_with_schema);
    ( "csv lenient matches strict on clean input",
      `Quick,
      test_csv_lenient_matches_strict_on_clean_input );
    ( "csv injected corruption contained",
      `Quick,
      test_csv_injected_corruption_contained );
    ("ladder degrade rungs", `Quick, test_degrade_rungs);
    ("ladder marginal prior is root CPD", `Quick, test_marginal_prior_is_root_cpd);
    ( "ladder voter drop degrades not raises",
      `Quick,
      test_voter_drop_degrades_not_raises );
    ( "fault keys discriminate wide tuples",
      `Quick,
      test_fault_keys_discriminate_wide_tuples );
    ("infer_result boundary", `Quick, test_infer_result_boundary);
    ("containment skips and reports", `Quick, test_containment_skips_and_reports);
    ( "containment bit-identical survivors",
      `Quick,
      test_containment_bit_identical_survivors );
    ("containment telemetry", `Quick, test_containment_counts_telemetry);
    ("fail-fast policy raises", `Quick, test_fail_fast_policy_raises);
    ("run wrapper unchanged", `Quick, test_run_wrapper_unchanged);
    ( "voter drops do not leak into clean runs",
      `Quick,
      test_voter_drop_does_not_leak_into_clean_runs );
    ("retry success single attempt", `Quick, test_retry_success_single_attempt);
    ("retry budget exhaustion", `Quick, test_retry_budget_exhaustion);
    ( "retry sweep budget caps attempts",
      `Quick,
      test_retry_sweep_budget_caps_attempts );
    ("retry policy validation", `Quick, test_retry_policy_validation);
    ("split rhat short series trivial", `Quick, test_split_rhat_short_series_trivial);
  ]
