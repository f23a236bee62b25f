(* Posterior_cache: evidence keys, signature restriction to the
   lattice-relevant context, hit/miss/eviction accounting, model-epoch
   invalidation, prewarm request dedup and fault-injection bypass. Then
   the per-epoch conditional tables Gibbs reads (Kernel): memoized runs
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

(* --- evidence codes --------------------------------------------------- *)

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
    Mrsl.Posterior_cache.tuple_code ~cards t
  in
  Alcotest.(check bool) "tail cell distinguishes codes" true
    (code 0 <> code 1 && code 1 <> code 2 && code 0 <> code 2);
  (* Missing vs value 0 must also differ. *)
  let t_missing = Array.copy base in
  t_missing.(arity - 1) <- None;
  Alcotest.(check bool) "missing distinct from value" true
    (Mrsl.Posterior_cache.tuple_code ~cards t_missing <> code 0);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Posterior_cache.tuple_code: cards/tuple arity mismatch")
    (fun () ->
      ignore (Mrsl.Posterior_cache.tuple_code ~cards:[| 2 |] base))

let test_evidence_key_attr_sensitive () =
  let cards = [| 2; 2; 8 |] in
  let t = [| None; Some 1; Some 3 |] in
  Alcotest.(check bool) "attr index is part of the key" true
    (Mrsl.Posterior_cache.evidence_key ~cards t 0
    <> Mrsl.Posterior_cache.evidence_key ~cards t 1)

let test_method_code_injective () =
  let codes = List.map Mrsl.Posterior_cache.method_code Mrsl.Voting.all_methods in
  Alcotest.(check int) "four distinct method codes" 4
    (List.length (List.sort_uniq compare codes))

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
  (* ...so tuples that differ only there share a signature — and the
     posterior really is bit-identical, which is what licenses the
     cache. *)
  let t1 = [| None; Some 1; Some 3 |] and t2 = [| None; Some 1; Some 7 |] in
  Alcotest.(check (array int)) "signatures equal"
    (Mrsl.Posterior_cache.signature model t1 0)
    (Mrsl.Posterior_cache.signature model t2 0);
  let d1 = Mrsl.Infer_single.infer model t1 0 in
  let d2 = Mrsl.Infer_single.infer model t2 0 in
  Alcotest.(check bool) "posteriors bit-identical" true
    ((d1 :> float array) = (d2 :> float array));
  (* A lattice-relevant cell does change the signature. *)
  let t3 = [| None; Some 0; Some 3 |] in
  Alcotest.(check bool) "body attr changes signature" true
    (Mrsl.Posterior_cache.signature model t1 0
    <> Mrsl.Posterior_cache.signature model t3 0)

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
  let t1' = [| None; Some 1; Some 5 |] (* same signature: noise differs *) in
  let t2 = [| None; Some 0; Some 3 |] (* different signature *) in
  let d_first = lookup t1 0 in
  let d_hit = lookup t1' 0 in
  ignore (lookup t2 0);
  ignore (lookup t1 0);
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "computed once per signature" 2 !calls;
  Alcotest.(check int) "misses" 2 st.misses;
  Alcotest.(check int) "hits" 2 st.hits;
  Alcotest.(check int) "entries" 2 st.entries;
  Alcotest.(check bool) "bytes accounted" true (st.bytes > 0);
  Alcotest.(check bool) "hit serves the stored distribution" true
    ((d_hit :> float array) = (d_first :> float array));
  Alcotest.(check (float 1e-9)) "hit_rate" 0.5
    (Mrsl.Posterior_cache.hit_rate cache);
  Mrsl.Posterior_cache.clear cache;
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "clear drops entries" 0 st.entries;
  Alcotest.(check int) "clear drops bytes" 0 st.bytes

let test_lru_eviction_under_budget () =
  let model = fixture_model () in
  (* One shard, a budget of ~2 entries: filling the signature space must
     evict least-recently-used entries instead of growing. *)
  let cache =
    Mrsl.Posterior_cache.create ~shards:1 ~max_bytes:400
      ~telemetry:(registry ()) ()
  in
  let method_ = Mrsl.Voting.best_averaged in
  let lookup tup a =
    ignore
      (Mrsl.Posterior_cache.find_or_compute cache model ~method_ tup a
         (fun () -> Mrsl.Infer_single.infer ~method_ model tup a))
  in
  (* Distinct signatures: vary the known body cell and the target attr. *)
  List.iter
    (fun (e, a) ->
      let t = Array.make 3 None in
      t.(1 - a) <- Some e;
      lookup t a)
    [ (0, 0); (1, 0); (0, 1); (1, 1) ];
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (st.evictions > 0);
  Alcotest.(check bool) "stayed within budget" true (st.bytes <= 400);
  Alcotest.(check int) "entries + evictions = misses" st.misses
    (st.entries + st.evictions)

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
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "both epochs resident" 2 st.entries;
  Mrsl.Posterior_cache.invalidate_stale cache ~current:model_b;
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "stale epoch reclaimed" 1 st.entries;
  lookup model_b t 0;
  Alcotest.(check int) "current epoch survives" 2 !calls

(* --- prewarm / request dedup ----------------------------------------- *)

let test_prewarm_dedup_fanout () =
  let model = fixture_model () in
  let telemetry = registry () in
  let cache = Mrsl.Posterior_cache.create ~telemetry () in
  let method_ = Mrsl.Voting.best_averaged in
  let calls = ref 0 in
  (* Four tuples, five (tuple, attr) tasks; t1/t2/t4 share the a0 task's
     signature (noise-only differences), so distinct = 3:
     {a0 | a1=1}, {a1 | a0=0}, {a0 | a1=0}. *)
  let workload =
    [
      [| None; Some 1; Some 3 |];
      [| None; Some 1; Some 7 |];
      [| Some 0; None; Some 2 |];
      [| None; Some 1; Some 0 |];
      [| None; Some 0; Some 1 |];
    ]
  in
  let distinct, fanout =
    Mrsl.Posterior_cache.prewarm cache model ~method_
      ~compute:(fun tup a ->
        incr calls;
        Mrsl.Infer_single.infer ~method_ model tup a)
      workload
  in
  Alcotest.(check int) "distinct signatures" 3 distinct;
  Alcotest.(check int) "fanout" 2 fanout;
  Alcotest.(check int) "compute once per signature" 3 !calls;
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "dedup_fanout accumulated" 2 st.dedup_fanout;
  Alcotest.(check int) "telemetry fanout counter matches" 2
    (Mrsl.Telemetry.counter telemetry "cache.dedup_fanout");
  Alcotest.(check int) "entries stored" 3 st.entries;
  (* The run's own lookups are now all hits. *)
  List.iter
    (fun tup ->
      List.iter
        (fun a ->
          ignore
            (Mrsl.Posterior_cache.find_or_compute cache model ~method_ tup a
               (fun () -> Alcotest.fail "prewarmed lookup recomputed")))
        (Relation.Tuple.missing tup))
    workload

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
      Alcotest.(check (pair int int)) "prewarm is a no-op under voter drops"
        (0, 0)
        (Mrsl.Posterior_cache.prewarm cache model ~method_
           ~compute:(fun tup a -> Mrsl.Infer_single.infer ~method_ model tup a)
           [ t ]));
  Alcotest.(check int) "every bypassed lookup recomputed" 2 !calls;
  let st = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "nothing stored" 0 st.entries;
  Alcotest.(check int) "nothing counted as hit" 0 st.hits;
  Alcotest.(check int) "nothing counted as miss" 0 st.misses;
  (* Clean runs after the fault window start from an empty cache — no
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
    (Mrsl.Parallel.run ~config ~memoize ~domains ~telemetry ~seed:5 model
       workload)
      .estimates
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
    ("method_code injective", `Quick, test_method_code_injective);
    ("signature = lattice-relevant cells", `Quick,
     test_signature_lattice_relevant_only);
    ("hit/miss accounting", `Quick, test_hit_miss_accounting);
    ("LRU eviction under byte budget", `Quick, test_lru_eviction_under_budget);
    ("model-epoch invalidation", `Quick, test_epoch_invalidation);
    ("prewarm dedup fanout", `Quick, test_prewarm_dedup_fanout);
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
