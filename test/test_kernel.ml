(* Compiled-kernel suite (compiled inference kernels PR).

   The kernel's contract is bit-exactness: for every posterior the
   compiled flat-array vote must reproduce the interpreted lattice
   walk float-for-float, or step aside (return to the interpreted
   path) — never approximate. The differential tests here compare the
   two paths exactly ([=] on the underlying float arrays), across
   voting methods, caching, Gibbs chains and domain counts, plus the
   fallback satellites: mixed-radix overflow, over-wide rule masks,
   epoch invalidation, and the engine's reject-reload atomicity. *)

module T = Mrsl.Telemetry

let with_kernel b f =
  let prev = Mrsl.Kernel.enabled () in
  Mrsl.Kernel.set_enabled b;
  Fun.protect ~finally:(fun () -> Mrsl.Kernel.set_enabled prev) f

let floats (d : Prob.Dist.t) = Array.copy (d :> float array)

let check_bits msg a b =
  if not (a = b) then
    Alcotest.failf "%s: compiled and interpreted posteriors differ" msg

(* --- random small models for the differential fuzz -------------------- *)

let random_model r =
  let arity = 3 + Prob.Rng.int r 3 in
  let cards = Array.init arity (fun _ -> 2 + Prob.Rng.int r 3) in
  let schema = Relation.Schema.of_cardinalities (Array.to_list cards) in
  (* Correlated columns (each tracks a0 with noise) so mining finds
     multi-attribute bodies and the lattices are non-trivial. *)
  let points =
    Array.init 200 (fun _ ->
        let a0 = Prob.Rng.int r cards.(0) in
        Array.init arity (fun a ->
            if a = 0 then a0
            else if Prob.Rng.float r < 0.8 then a0 mod cards.(a)
            else Prob.Rng.int r cards.(a)))
  in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.05 }
      schema points
  in
  (model, cards)

let random_tuple r cards =
  let arity = Array.length cards in
  let tup =
    Array.init arity (fun a ->
        if Prob.Rng.float r < 0.4 then None
        else Some (Prob.Rng.int r cards.(a)))
  in
  if Array.for_all Option.is_some tup then
    tup.(Prob.Rng.int r arity) <- None;
  tup

let missing_attrs tup =
  List.filter
    (fun a -> tup.(a) = None)
    (List.init (Array.length tup) Fun.id)

(* Every posterior the kernel serves must equal the interpreted one
   bit-for-bit — all four voting methods, with and without a posterior
   cache, over randomized models and tuples. *)
let test_fuzz_voting_bit_identical () =
  let r = Prob.Rng.create 20110 in
  for _ = 1 to 8 do
    let model, cards = random_model r in
    let cache_on = Mrsl.Posterior_cache.create () in
    let cache_off = Mrsl.Posterior_cache.create () in
    for _ = 1 to 12 do
      let tup = random_tuple r cards in
      List.iter
        (fun a ->
          List.iter
            (fun method_ ->
              let interp =
                with_kernel false (fun () ->
                    floats (Mrsl.Infer_single.infer ~method_ model tup a))
              in
              let compiled =
                with_kernel true (fun () ->
                    floats (Mrsl.Infer_single.infer ~method_ model tup a))
              in
              check_bits
                (Printf.sprintf "uncached %s"
                   (Mrsl.Voting.method_name method_))
                interp compiled;
              let interp_c =
                with_kernel false (fun () ->
                    floats
                      (Mrsl.Infer_single.infer ~method_ ~cache:cache_off
                         model tup a))
              in
              let compiled_c =
                with_kernel true (fun () ->
                    floats
                      (Mrsl.Infer_single.infer ~method_ ~cache:cache_on
                         model tup a))
              in
              check_bits
                (Printf.sprintf "cached %s"
                   (Mrsl.Voting.method_name method_))
                interp_c compiled_c;
              check_bits "cached = uncached" interp interp_c)
            Mrsl.Voting.all_methods)
        (missing_attrs tup)
    done
  done

(* --- Gibbs ------------------------------------------------------------ *)

let dependent_model =
  lazy
    (Mrsl.Model.learn_points
       ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
       Helpers.dependent_schema
       (Helpers.dependent_points 300))

let gibbs_config = { Mrsl.Gibbs.burn_in = 20; samples = 60 }

(* Same seed, same chain: the kernel only changes how each conditional
   CPD is computed, and those are bit-identical, so every draw — and
   therefore the whole joint estimate — must coincide. *)
let test_gibbs_seed_identity () =
  let model = Lazy.force dependent_model in
  let tups = [ [| None; None; Some 1 |]; [| Some 0; None; None |] ] in
  List.iter
    (fun tup ->
      let joint kernel memoize =
        with_kernel kernel (fun () ->
            let s = Mrsl.Gibbs.sampler ~memoize model in
            let e =
              Mrsl.Gibbs.run ~config:gibbs_config (Prob.Rng.create 11) s tup
            in
            floats e.Mrsl.Gibbs.joint)
      in
      check_bits "gibbs unmemoized" (joint false false) (joint true false);
      check_bits "gibbs memoized" (joint false true) (joint true true))
    tups

(* --- parallel --------------------------------------------------------- *)

let estimates_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, (ea : Mrsl.Gibbs.estimate)) (tb, (eb : Mrsl.Gibbs.estimate)) ->
         Relation.Tuple.equal ta tb
         && ea.samples_used = eb.samples_used
         && (ea.joint :> float array) = (eb.joint :> float array))
       a b

let test_parallel_domains_bit_identical () =
  let model = Lazy.force dependent_model in
  let workload =
    [
      [| None; Some 0; Some 0 |];
      [| Some 1; None; Some 1 |];
      [| None; None; Some 1 |];
      [| Some 0; Some 0; None |];
    ]
  in
  let run kernel domains =
    with_kernel kernel (fun () ->
        let r =
          Mrsl.Parallel.run ~config:gibbs_config ~domains ~seed:7 model
            workload
        in
        r.Mrsl.Workload.estimates)
  in
  let reference = run false 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "compiled = interpreted at %d domains" domains)
        true
        (estimates_equal reference (run true domains)))
    [ 1; 2; 4 ]

(* --- cache-key namespaces --------------------------------------------- *)

(* Kernel context codes and interpreted signatures live in disjoint key
   namespaces of the same cache: toggling the kernel must never let one
   path hit an entry the other filled. *)
let test_cache_namespaces_disjoint () =
  let model = Lazy.force dependent_model in
  let cache = Mrsl.Posterior_cache.create () in
  let tup = [| None; Some 0; Some 0 |] in
  let infer () = floats (Mrsl.Infer_single.infer ~cache model tup 0) in
  let d1 = with_kernel true infer in
  let s1 = Mrsl.Posterior_cache.stats cache in
  let d2 = with_kernel false infer in
  let s2 = Mrsl.Posterior_cache.stats cache in
  (* the interpreted lookup missed: fresh entry, no hit on the ns=1 key *)
  Alcotest.(check int) "interpreted miss fills a new entry"
    (s1.Mrsl.Posterior_cache.entries + 1)
    s2.Mrsl.Posterior_cache.entries;
  Alcotest.(check int) "no cross-namespace hit" s1.Mrsl.Posterior_cache.hits
    s2.Mrsl.Posterior_cache.hits;
  let d3 = with_kernel true infer in
  let s3 = Mrsl.Posterior_cache.stats cache in
  Alcotest.(check int) "kernel re-lookup hits its own entry"
    (s2.Mrsl.Posterior_cache.hits + 1)
    s3.Mrsl.Posterior_cache.hits;
  check_bits "both namespaces agree" d1 d2;
  check_bits "hit equals fill" d1 d3

(* --- registry lifecycle ----------------------------------------------- *)

let test_epoch_invalidation () =
  let reg = T.create () in
  let points = Helpers.dependent_points 300 in
  let params =
    { Mrsl.Model.default_params with support_threshold = 0.01 }
  in
  let m1 = Mrsl.Model.learn_points ~params Helpers.dependent_schema points in
  ignore (Mrsl.Kernel.ensure ~telemetry:reg m1 : Mrsl.Kernel.t);
  ignore (Mrsl.Kernel.ensure ~telemetry:reg m1 : Mrsl.Kernel.t);
  Alcotest.(check int) "one compile per epoch" 1
    (T.counter reg "kernel.compiles");
  let m2 = Mrsl.Model.learn_points ~params Helpers.dependent_schema points in
  Alcotest.(check bool) "epoch advanced" true
    (Mrsl.Model.epoch m2 <> Mrsl.Model.epoch m1);
  ignore (Mrsl.Kernel.ensure ~telemetry:reg m2 : Mrsl.Kernel.t);
  Alcotest.(check int) "new epoch compiles" 2
    (T.counter reg "kernel.compiles");
  Mrsl.Kernel.invalidate_stale ~current:m2;
  (* m1's kernel was dropped: ensuring it again recompiles *)
  ignore (Mrsl.Kernel.ensure ~telemetry:reg m1 : Mrsl.Kernel.t);
  Alcotest.(check int) "stale epoch dropped" 3
    (T.counter reg "kernel.compiles");
  (* m2's survived invalidation keyed to itself *)
  Mrsl.Kernel.invalidate_stale ~current:m2;
  ignore (Mrsl.Kernel.ensure ~telemetry:reg m2 : Mrsl.Kernel.t);
  Alcotest.(check int) "current epoch retained" 3
    (T.counter reg "kernel.compiles")

let test_hit_counter () =
  let reg = T.create () in
  let model = Lazy.force dependent_model in
  let tup = [| None; Some 0; Some 0 |] in
  with_kernel true (fun () ->
      ignore (Mrsl.Infer_single.infer ~telemetry:reg model tup 0));
  Alcotest.(check bool) "kernel.hits counted" true
    (T.counter reg "kernel.hits" > 0);
  Alcotest.(check int) "no fallback" 0 (T.counter reg "kernel.fallback")

(* --- fallback satellites ---------------------------------------------- *)

let uniform_cpd card = Array.make card (1. /. float_of_int card)

let root_rule ~head_attr ~card =
  Mrsl.Meta_rule.make ~body:Mining.Itemset.empty ~head_attr ~weight:1.0
    ~raw_cpd:(uniform_cpd card) ()

let root_only_lattice ~head_attr ~card =
  Mrsl.Lattice.create ~head_attr ~head_card:card
    ~root:(root_rule ~head_attr ~card)
    []

(* A model whose attribute-0 lattice has a rule body wide/deep enough
   that the kernel cannot represent it; the rule conditions on every
   other attribute at value 0. *)
let wide_body_model ~arity ~card =
  let schema =
    Relation.Schema.of_cardinalities (List.init arity (fun _ -> card))
  in
  let body =
    Mining.Itemset.of_list (List.init (arity - 1) (fun i -> (i + 1, 0)))
  in
  let skewed = Array.init card (fun i -> if i = 0 then 10. else 1.) in
  let rule =
    Mrsl.Meta_rule.make ~body ~head_attr:0 ~weight:0.5 ~raw_cpd:skewed ()
  in
  let lattices =
    Array.init arity (fun a ->
        if a = 0 then
          Mrsl.Lattice.create ~head_attr:0 ~head_card:card
            ~root:(root_rule ~head_attr:0 ~card)
            [ rule ]
        else root_only_lattice ~head_attr:a ~card)
  in
  Mrsl.Model.of_parts schema lattices

(* [known] bounds how many cells carry evidence: the interpreted
   matcher enumerates subsets of the known cells, so the 65-attribute
   mask-width model must be queried with sparse evidence (the kernel's
   fallback decision is per-attribute at compile time and does not
   depend on the tuple). *)
let check_fallback_model name model arity ~known =
  let tup =
    Array.init arity (fun a ->
        if a = 0 || a > known then None else Some 0)
  in
  let k = Mrsl.Kernel.compile model in
  Alcotest.(check bool)
    (name ^ ": attribute 0 not compiled")
    false
    (Mrsl.Kernel.attr_compiled k 0);
  Alcotest.(check bool)
    (name ^ ": trivial attribute still compiled")
    true
    (Mrsl.Kernel.attr_compiled k 1);
  (* a fallback attribute gets no kernel-coded cache key… *)
  with_kernel true (fun () ->
      Alcotest.(check bool)
        (name ^ ": no kernel cache code")
        true
        (Mrsl.Kernel.cache_code model tup 0 = None));
  (* …and its posterior comes from the interpreted path, counted as a
     fallback, bit-identical to a kernel-disabled run *)
  let reg = T.create () in
  let compiled =
    with_kernel true (fun () ->
        floats (Mrsl.Infer_single.infer ~telemetry:reg model tup 0))
  in
  let interp =
    with_kernel false (fun () ->
        floats (Mrsl.Infer_single.infer model tup 0))
  in
  check_bits (name ^ ": fallback equals interpreted") interp compiled;
  Alcotest.(check bool)
    (name ^ ": kernel.fallback counted")
    true
    (T.counter reg "kernel.fallback" > 0);
  Alcotest.(check int) (name ^ ": no kernel hit") 0
    (T.counter reg "kernel.hits");
  (* …and Gibbs never memoizes it: a chain's initialisation probes the
     conditional tables for every other missing attribute, not for it *)
  with_kernel true (fun () ->
      let s = Mrsl.Gibbs.sampler model in
      ignore (Mrsl.Gibbs.chain (Prob.Rng.create 1) s tup);
      let hits, misses = Mrsl.Gibbs.cache_stats s in
      Alcotest.(check int)
        (name ^ ": fallback attribute not probed")
        (Relation.Tuple.missing_count tup - 1)
        (hits + misses));
  (* caching still works through the ns=0 (interpreted-signature) keys *)
  let cache = Mrsl.Posterior_cache.create () in
  with_kernel true (fun () ->
      let a = floats (Mrsl.Infer_single.infer ~cache model tup 0) in
      let b = floats (Mrsl.Infer_single.infer ~cache model tup 0) in
      check_bits (name ^ ": cached fallback stable") a b);
  Alcotest.(check bool)
    (name ^ ": fallback cache hit")
    true
    ((Mrsl.Posterior_cache.stats cache).Mrsl.Posterior_cache.hits > 0)

(* Satellite 1: 9 body attributes of cardinality 256 make the mixed-radix
   place weights (radix 257 each) overflow max_int; the compiler must
   detect this and mark the attribute interpreted-only, never emit a
   wrapped context code. *)
let test_overflow_fallback () =
  check_fallback_model "mixed-radix overflow"
    (wide_body_model ~arity:10 ~card:256)
    10 ~known:9

(* A 65-attribute body exceeds the 62-bit match-mask budget — same
   fallback, different guard. *)
let test_wide_mask_fallback () =
  check_fallback_model "mask width"
    (wide_body_model ~arity:66 ~card:2)
    66 ~known:6

(* --- engine reload atomicity (satellite 2) ----------------------------- *)

module P = Serving.Protocol

let test_engine_rejected_reload_bit_identical () =
  let model = Lazy.force dependent_model in
  let path = Filename.temp_file "mrsl_kernel_test" ".mrsl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Mrsl.Model_io.save path model;
  let telemetry = T.create () in
  let config =
    {
      Serving.Engine.default_config with
      seed = 2011;
      gibbs = { Mrsl.Gibbs.burn_in = 10; samples = 40 };
    }
  in
  let engine =
    Serving.Engine.of_model ~telemetry ~config ~model_path:path model
  in
  let req = P.req (P.Infer [| None; Some "v0"; Some "v1" |]) in
  let before = Serving.Engine.handle_request engine req in
  let epoch0 = Serving.Engine.epoch engine in
  (match Serving.Engine.reload ~path:"/nonexistent/model.mrsl" engine with
  | Ok _ -> Alcotest.fail "reload of a missing file succeeded"
  | Error _ -> ());
  Alcotest.(check int) "epoch untouched" epoch0 (Serving.Engine.epoch engine);
  let after = Serving.Engine.handle_request engine req in
  (* bit-identical INCLUDING the epoch stamp: the failed reload left
     model, epoch, cache and compiled kernels exactly as they were *)
  Alcotest.(check string) "rejected reload serves identical answers" before
    after

let suite =
  [
    ("fuzz: voting bit-identical ± cache", `Quick, test_fuzz_voting_bit_identical);
    ("gibbs seed-identity ± kernel", `Quick, test_gibbs_seed_identity);
    ("parallel 1/2/4 domains bit-identical", `Quick, test_parallel_domains_bit_identical);
    ("cache-key namespaces disjoint", `Quick, test_cache_namespaces_disjoint);
    ("epoch invalidation", `Quick, test_epoch_invalidation);
    ("kernel.hits counted", `Quick, test_hit_counter);
    ("mixed-radix overflow falls back", `Quick, test_overflow_fallback);
    ("wide mask falls back", `Quick, test_wide_mask_fallback);
    ("rejected reload bit-identical", `Quick, test_engine_rejected_reload_bit_identical);
  ]
