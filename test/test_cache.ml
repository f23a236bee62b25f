(* The posterior store: fault-site keys, context codes restricted to the
   lattice-relevant cells, hit/miss accounting through Posterior_cache,
   stores declined by a full budget, model-epoch isolation and the
   fault-injection bypass. Then the per-epoch conditional tables Gibbs
   reads and fills (Kernel): memoized runs
   are bit-identical to unmemoized runs at any domain count, on both
   table representations; the tables outlive a derivation, start empty
   at a new epoch, and are neither read nor written while the kernel is
   off or voter drops are injected. *)

open Helpers

(* Fixture: a0 and a1 strongly correlated (so each appears in the
   other's rule bodies), a2 a high-cardinality iid noise attribute whose
   itemsets fall below the support threshold — lattice-irrelevant, hence
   absent from every evidence signature. *)
let fixture_points n =
  let r = rng () in
  Array.init n (fun _ ->
      let a0 = Prob.Rng.int r 2 in
      let a1 = if Prob.Rng.float r < 0.9 then a0 else 1 - a0 in
      [| a0; a1; Prob.Rng.int r 8 |])

let fixture_schema = Relation.Schema.of_cardinalities [ 2; 2; 8 ]

let fixture_model ?(points = fixture_points 400) () =
  Mrsl.Model.learn_points
    ~params:{ Mrsl.Model.default_params with support_threshold = 0.15 }
    fixture_schema points

let registry () = Mrsl.Telemetry.create ()

let estimates_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, (ea : Mrsl.Gibbs.estimate)) (tb, (eb : Mrsl.Gibbs.estimate)) ->
         Relation.Tuple.equal ta tb
         && ea.samples_used = eb.samples_used
         && (ea.joint :> float array) = (eb.joint :> float array))
       a b

(* --- fault-site keys ---------------------------------------------------- *)

let test_tuple_code_full_traversal () =
  (* The seed keyed fault sites with [Stdlib.Hashtbl.hash], whose bounded
     traversal ignores the tail of wide tuples. The mixed-radix code must
     distinguish tuples that differ only in their last cell. *)
  let arity = 48 in
  let cards = Array.make arity 3 in
  let base = Array.init arity (fun _ -> Some 0) in
  let code v =
    let t = Array.copy base in
    t.(arity - 1) <- Some v;
    Mrsl.Fault_inject.tuple_code ~cards t
  in
  Alcotest.(check bool) "tail cell distinguishes codes" true
    (code 0 <> code 1 && code 1 <> code 2 && code 0 <> code 2);
  (* Missing vs value 0 must also differ. *)
  let t_missing = Array.copy base in
  t_missing.(arity - 1) <- None;
  Alcotest.(check bool) "missing distinct from value" true
    (Mrsl.Fault_inject.tuple_code ~cards t_missing <> code 0);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Fault_inject.tuple_code: cards/tuple arity mismatch")
    (fun () ->
      ignore (Mrsl.Fault_inject.tuple_code ~cards:[| 2 |] base))

let test_evidence_key_attr_sensitive () =
  let cards = [| 2; 2; 8 |] in
  let t = [| None; Some 1; Some 3 |] in
  Alcotest.(check bool) "attr index is part of the key" true
    (Mrsl.Fault_inject.evidence_key ~cards t 0
    <> Mrsl.Fault_inject.evidence_key ~cards t 1)

(* --- context codes ------------------------------------------------------ *)

let table model a =
  match Mrsl.Kernel.table ~method_:Mrsl.Voting.best_averaged model a with
  | Some tb -> tb
  | None -> Alcotest.failf "attribute %d has no conditional table" a

let test_signature_lattice_relevant_only () =
  let model = fixture_model () in
  (* The noise attribute never reaches a rule body... *)
  Array.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "attr 2 not in body_attrs of lattice %d" a)
        false
        (Array.exists (Int.equal 2)
           (Mrsl.Lattice.body_attrs (Mrsl.Model.lattice model a))))
    [| 0; 1 |];
  (* ...so tuples that differ only there get one context code — and the
     posterior really is bit-identical, which is what licenses storing
     it once. *)
  let tb = table model 0 in
  let code = Mrsl.Kernel.tuple_context_code tb in
  let t1 = [| None; Some 1; Some 3 |] and t2 = [| None; Some 1; Some 7 |] in
  Alcotest.(check int) "context codes equal" (code t1) (code t2);
  let d1 = Mrsl.Infer_single.infer model t1 0 in
  let d2 = Mrsl.Infer_single.infer model t2 0 in
  Alcotest.(check bool) "posteriors bit-identical" true
    ((d1 :> float array) = (d2 :> float array));
  (* A lattice-relevant cell does change the code. *)
  let t3 = [| None; Some 0; Some 3 |] in
  Alcotest.(check bool) "body attr changes the code" true (code t1 <> code t3);
  (* A tuple's code is its point's, so single-missing inference and
     Gibbs conditionals share entries. *)
  Alcotest.(check int) "tuple code = point code"
    (Mrsl.Kernel.context_code tb [| -1; 1; 3 |])
    (code t1)

(* A value past its attribute's range would carry into the next digit
   of a context code (another context's entry) or index past the end of
   a dense table: here a1 = 2 codes as slot 3 of a0's 3-slot table.
   Cached and uncached inference both refuse it. *)
let test_out_of_range_value_refused () =
  let model = fixture_model () in
  let cache = Mrsl.Posterior_cache.create ~telemetry:(registry ()) () in
  ignore (Mrsl.Infer_single.infer ~cache model [| None; None; Some 1 |] 0);
  let bad = [| None; Some 2; Some 0 |] in
  List.iter
    (fun (name, cache) ->
      match Mrsl.Infer_single.infer_result ?cache model bad 0 with
      | Ok _ -> Alcotest.failf "%s: out-of-range value served" name
      | Error e ->
          Alcotest.(check string) (name ^ ": refused") "infer.bad_task"
            e.Mrsl.Error.code)
    [ ("uncached", None); ("cached", Some cache) ]

(* --- accounting ------------------------------------------------------- *)

let test_hit_miss_accounting () =
  let model = fixture_model () in
  let cache = Mrsl.Posterior_cache.create ~telemetry:(registry ()) () in
  let calls = ref 0 in
  let method_ = Mrsl.Voting.best_averaged in
  let lookup tup a =
    Mrsl.Posterior_cache.find_or_compute cache model ~method_ tup a (fun () ->
        incr calls;
        Mrsl.Infer_single.infer ~method_ model tup a)
  in
  let t1 = [| None; Some 1; Some 3 |] in
  let t1' = [| None; Some 1; Some 5 |] (* same context: noise differs *) in
  let t2 = [| None; Some 0; Some 3 |] (* different context *) in
  let d_first = lookup t1 0 in
  let d_hit = lookup t1' 0 in
  ignore (lookup t2 0);
  ignore (lookup t1 0);
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "computed once per context" 2 !calls;
  Alcotest.(check int) "misses" 2 st.misses;
  Alcotest.(check int) "hits" 2 st.hits;
  Alcotest.(check int) "entries" 2 st.entries;
  Alcotest.(check int) "no store declined" 0 st.evictions;
  Alcotest.(check bool) "hit serves the stored distribution" true
    ((d_hit :> float array) = (d_first :> float array))

(* A BN7 model, as in the table tests below, with an attribute whose
   table is hashed (> 2^16 contexts). *)
let hashed_fixture () =
  let entry = Bayesnet.Catalog.find "BN7" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
      (Bayesnet.Network.sample_instance r net 2000)
  in
  let schema = Mrsl.Model.schema model in
  let slots a =
    Array.fold_left
      (fun n b -> n * (Relation.Schema.cardinality schema b + 1))
      1
      (Mrsl.Lattice.body_attrs (Mrsl.Model.lattice model a))
  in
  let arity = Relation.Schema.arity schema in
  match List.find_opt (fun a -> slots a > 1 lsl 16) (List.init arity Fun.id) with
  | Some a -> (r, net, model, a)
  | None -> Alcotest.fail "BN7 has no hashed table"

(* The hashed tables of one epoch share one byte budget: once it is full
   a store is declined (counted in evictions), never evicting anything,
   and every posterior served is still the computed one. *)
let test_full_budget_declines_stores () =
  let r, net, model, a = hashed_fixture () in
  let budget = 2000 in
  ignore (Mrsl.Kernel.ensure ~budget_bytes:budget model : Mrsl.Kernel.t);
  let cache = Mrsl.Posterior_cache.create ~telemetry:(registry ()) () in
  let tuples =
    List.init 200 (fun _ ->
        let tup =
          Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
        in
        tup.(a) <- None;
        tup)
  in
  let pass () =
    List.iter
      (fun tup ->
        let served = Mrsl.Infer_single.infer ~cache model tup a in
        let computed = Mrsl.Infer_single.infer model tup a in
        Alcotest.(check bool) "served = computed" true
          ((served :> float array) = (computed :> float array)))
      tuples
  in
  pass ();
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check bool) "stores declined" true (st.evictions > 0);
  Alcotest.(check bool) "some stored" true (st.entries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "within budget (%d bytes)" st.bytes)
    true (st.bytes <= budget);
  Alcotest.(check int) "entries + declined = misses" st.misses
    (st.entries + st.evictions);
  (* A second pass evicts nothing: every stored entry still hits. *)
  pass ();
  let st' = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "entries unchanged" st.entries st'.entries;
  Alcotest.(check bool) "stored entries hit" true (st'.hits - st.hits >= st.entries)

let test_epoch_invalidation () =
  let points = fixture_points 400 in
  let model_a = fixture_model ~points () in
  let model_b = fixture_model ~points () (* same data, fresh epoch *) in
  Alcotest.(check bool) "epochs differ" true
    (Mrsl.Model.epoch model_a <> Mrsl.Model.epoch model_b);
  let cache = Mrsl.Posterior_cache.create ~telemetry:(registry ()) () in
  let method_ = Mrsl.Voting.best_averaged in
  let calls = ref 0 in
  let lookup model tup a =
    ignore
      (Mrsl.Posterior_cache.find_or_compute cache model ~method_ tup a
         (fun () ->
           incr calls;
           Mrsl.Infer_single.infer ~method_ model tup a))
  in
  let t = [| None; Some 1; Some 3 |] in
  lookup model_a t 0;
  lookup model_a t 0;
  Alcotest.(check int) "one compute for model A" 1 !calls;
  (* The rebuilt model must never be served model A's posterior. *)
  lookup model_b t 0;
  Alcotest.(check int) "rebuild recomputes" 2 !calls;
  let entries m = (Mrsl.Kernel.usage (Mrsl.Model.epoch m)).entries in
  Alcotest.(check (pair int int)) "each epoch holds its own" (1, 1)
    (entries model_a, entries model_b);
  Alcotest.(check int) "stats read the last epoch probed" 1
    (Mrsl.Posterior_cache.stats cache).entries;
  Mrsl.Kernel.invalidate_stale ~current:model_b;
  Alcotest.(check (pair int int)) "stale epoch reclaimed" (0, 1)
    (entries model_a, entries model_b);
  lookup model_b t 0;
  Alcotest.(check int) "current epoch survives" 2 !calls

(* --- fault-injection bypass ------------------------------------------ *)

let test_voter_drop_bypasses_cache () =
  let model = fixture_model () in
  let cache = Mrsl.Posterior_cache.create ~telemetry:(registry ()) () in
  let method_ = Mrsl.Voting.best_averaged in
  let t = [| None; Some 1; Some 3 |] in
  let calls = ref 0 in
  let lookup () =
    ignore
      (Mrsl.Posterior_cache.find_or_compute cache model ~method_ t 0
         (fun () ->
           incr calls;
           Mrsl.Infer_single.infer ~method_ model t 0))
  in
  Mrsl.Fault_inject.with_config
    { Mrsl.Fault_inject.disabled with seed = 7; voter_drop_rate = 1.0 }
    (fun () ->
      lookup ();
      lookup ();
      Alcotest.(check bool) "find answers nothing under voter drops" true
        (Mrsl.Posterior_cache.find cache model ~method_ t 0 = None));
  Alcotest.(check int) "every bypassed lookup recomputed" 2 !calls;
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "nothing stored" 0 st.entries;
  Alcotest.(check int) "nothing counted as hit" 0 st.hits;
  Alcotest.(check int) "nothing counted as miss" 0 st.misses;
  (* Clean runs after the fault window start from an empty table — no
     degraded posterior can have leaked in. *)
  lookup ();
  Alcotest.(check int) "post-fault lookup computes cleanly" 3 !calls;
  Alcotest.(check int) "and is now cached"
    1
    (Mrsl.Posterior_cache.stats cache).entries

(* --- conditional tables ------------------------------------------------ *)

let test_sequential_cached_uncached_identical () =
  let model = fixture_model () in
  let workload =
    List.init 10 (fun i ->
        if i land 1 = 0 then [| None; Some (i land 2 / 2); Some (i mod 8) |]
        else [| None; None; Some (i mod 8) |])
  in
  let config = { Mrsl.Gibbs.burn_in = 5; samples = 25 } in
  let run sampler =
    let result =
      Mrsl.Workload.run ~config ~telemetry:(registry ()) (Prob.Rng.create 11)
        sampler workload
    in
    (result.estimates, Mrsl.Gibbs.cache_stats sampler)
  in
  let plain, off_stats = run (Mrsl.Gibbs.sampler ~memoize:false model) in
  let cold, (cold_hits, _) = run (Mrsl.Gibbs.sampler model) in
  let warm, (warm_hits, warm_misses) = run (Mrsl.Gibbs.sampler model) in
  Alcotest.(check (pair int int)) "memoize:false never probes" (0, 0) off_stats;
  Alcotest.(check bool) "cold table produced hits" true (cold_hits > 0);
  Alcotest.(check int) "warm table never misses" 0 warm_misses;
  Alcotest.(check bool) "warm table produced hits" true (warm_hits > 0);
  Alcotest.(check bool) "cold table bit-identical" true
    (estimates_equal plain cold);
  Alcotest.(check bool) "warm table bit-identical" true
    (estimates_equal plain warm)

let test_parallel_cached_uncached_identical_across_domains () =
  let model = fixture_model () in
  let workload =
    List.init 9 (fun i ->
        if i mod 3 = 0 then [| None; None; Some (i mod 8) |]
        else [| None; Some (i land 1); Some (i mod 8) |])
  in
  let config = { Mrsl.Gibbs.burn_in = 5; samples = 25 } in
  let run ~memoize ~telemetry domains =
    (Mrsl.Workload.run_contained ~config ~memoize ~domains ~telemetry ~seed:5
       model workload)
      .result.estimates
  in
  let baseline = run ~memoize:false ~telemetry:(registry ()) 1 in
  List.iter
    (fun domains ->
      let telemetry = registry () in
      let off = run ~memoize:false ~telemetry:(registry ()) domains in
      let on = run ~memoize:true ~telemetry domains in
      let hit_rate =
        match Mrsl.Telemetry.histogram telemetry "gibbs.memo_hit_rate" with
        | Some s -> s.max
        | None -> 0.
      in
      Alcotest.(check bool)
        (Printf.sprintf "table hits > 0 at domains=%d" domains)
        true (hit_rate > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "off bit-identical at domains=%d" domains)
        true
        (estimates_equal baseline off);
      Alcotest.(check bool)
        (Printf.sprintf "on bit-identical at domains=%d" domains)
        true
        (estimates_equal baseline on))
    [ 1; 2; 4 ]

(* Every table miss is one compiled vote, so [kernel.hits] in the global
   registry (where Pdb.derive's inference counts) measures a derivation's
   misses. *)
let test_table_outlives_derive () =
  let entry = Bayesnet.Catalog.find "BN10" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 600 in
  let learn () =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      data
  in
  let model = learn () in
  let arity = Relation.Schema.arity (Mrsl.Model.schema model) in
  let inst =
    Relation.Instance.make (Mrsl.Model.schema model)
      (List.init 30 (fun i ->
           let tup =
             Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
           in
           tup.(i mod arity) <- None;
           tup.((i + 1 + (i / arity)) mod arity) <- None;
           tup))
  in
  let config = { Mrsl.Gibbs.burn_in = 10; samples = 50 } in
  let derive m =
    let before = Mrsl.Telemetry.counter Mrsl.Telemetry.global "kernel.hits" in
    let db = Probdb.Pdb.derive ~config (Prob.Rng.create 3) m inst in
    ( Probdb.Pdb.blocks db,
      Mrsl.Telemetry.counter Mrsl.Telemetry.global "kernel.hits" - before )
  in
  let first, first_misses = derive model in
  let second, second_misses = derive model in
  let fresh, fresh_misses = derive (learn ()) in
  Alcotest.(check bool) "first derivation misses" true (first_misses > 0);
  Alcotest.(check bool) "second derivation misses less" true
    (second_misses < first_misses);
  Alcotest.(check int) "a new epoch starts empty" first_misses fresh_misses;
  Alcotest.(check bool) "warm derivation bit-identical" true (first = second);
  Alcotest.(check bool) "new-epoch derivation bit-identical" true
    (first = fresh)

(* Number of evidence contexts of attribute [a]: ∏ (card + 1) over the
   lattice's body attributes. *)
let context_slots model a =
  let schema = Mrsl.Model.schema model in
  Array.fold_left
    (fun n b -> n * (Relation.Schema.cardinality schema b + 1))
    1
    (Mrsl.Lattice.body_attrs (Mrsl.Model.lattice model a))

let test_dense_and_hashed_tables_identical () =
  let check name ~rows ~theta ~want_hashed =
    let entry = Bayesnet.Catalog.find name in
    let r = Prob.Rng.create 2011 in
    let net = Bayesnet.Network.generate r entry.topology in
    let model =
      Mrsl.Model.learn
        ~params:{ Mrsl.Model.default_params with support_threshold = theta }
        (Bayesnet.Network.sample_instance r net rows)
    in
    let arity = Relation.Schema.arity (Mrsl.Model.schema model) in
    let slots = List.init arity (context_slots model) in
    Alcotest.(check bool)
      (name ^ ": has a hashed (> 2^16 contexts) attribute")
      want_hashed
      (List.exists (fun n -> n > 1 lsl 16) slots);
    let workload =
      List.init 24 (fun i ->
          let tup =
            Relation.Tuple.of_point (Bayesnet.Network.sample_point r net)
          in
          tup.(i mod arity) <- None;
          tup.((i + 3) mod arity) <- None;
          tup)
    in
    let config = { Mrsl.Gibbs.burn_in = 10; samples = 40 } in
    let run memoize =
      let sampler = Mrsl.Gibbs.sampler ~memoize model in
      let est =
        (Mrsl.Workload.run ~config ~telemetry:(registry ())
           (Prob.Rng.create 9) sampler workload)
          .estimates
      in
      (est, fst (Mrsl.Gibbs.cache_stats sampler))
    in
    let off, _ = run false in
    let cold, _ = run true in
    let warm, warm_hits = run true in
    Alcotest.(check bool) (name ^ ": warm table hits") true (warm_hits > 0);
    Alcotest.(check bool) (name ^ ": cold table = off") true
      (estimates_equal off cold);
    Alcotest.(check bool) (name ^ ": warm table = off") true
      (estimates_equal off warm)
  in
  check "BN10" ~rows:600 ~theta:0.02 ~want_hashed:false;
  check "BN7" ~rows:2000 ~theta:0.01 ~want_hashed:true

(* With the kernel off or voter drops injected, a sampler neither reads
   nor writes the tables: it counts no probe, and a clean sampler
   afterwards still misses on the very same conditionals. *)
let test_table_bypassed_when_kernel_off_or_voters_dropped () =
  let point = [| 1; 0; 3 |] in
  let probe_all s =
    ignore (Mrsl.Gibbs.conditional s point 0);
    ignore (Mrsl.Gibbs.conditional s point 1)
  in
  let bypassed name scope =
    let model = fixture_model () in
    let s = Mrsl.Gibbs.sampler model in
    scope (fun () -> probe_all s);
    Alcotest.(check (pair int int)) (name ^ ": no probe") (0, 0)
      (Mrsl.Gibbs.cache_stats s);
    let clean = Mrsl.Gibbs.sampler model in
    probe_all clean;
    Alcotest.(check (pair int int)) (name ^ ": nothing was written") (0, 2)
      (Mrsl.Gibbs.cache_stats clean)
  in
  bypassed "kernel off" (fun f ->
      let prev = Mrsl.Kernel.enabled () in
      Mrsl.Kernel.set_enabled false;
      Fun.protect ~finally:(fun () -> Mrsl.Kernel.set_enabled prev) f);
  bypassed "voter drop"
    (Mrsl.Fault_inject.with_config
       { Mrsl.Fault_inject.disabled with seed = 7; voter_drop_rate = 1.0 })

let suite =
  [
    ("tuple_code full traversal", `Quick, test_tuple_code_full_traversal);
    ("evidence_key attr-sensitive", `Quick, test_evidence_key_attr_sensitive);
    ("signature = lattice-relevant cells", `Quick,
     test_signature_lattice_relevant_only);
    ("out-of-range value refused", `Quick, test_out_of_range_value_refused);
    ("hit/miss accounting", `Quick, test_hit_miss_accounting);
    ("full budget declines stores", `Quick, test_full_budget_declines_stores);
    ("model-epoch invalidation", `Quick, test_epoch_invalidation);
    ("voter drops bypass the cache", `Quick, test_voter_drop_bypasses_cache);
    ("sequential cached = uncached", `Quick,
     test_sequential_cached_uncached_identical);
    ("parallel cached = uncached at 1/2/4 domains", `Quick,
     test_parallel_cached_uncached_identical_across_domains);
    ("table outlives derive, new epoch empty", `Quick,
     test_table_outlives_derive);
    ("dense and hashed tables: on = off", `Quick,
     test_dense_and_hashed_tables_identical);
    ("table bypassed: kernel off, voter drop", `Quick,
     test_table_bypassed_when_kernel_off_or_voters_dropped);
  ]
