(* Calibrated statistical oracle for the Algorithm 3 samplers.

   Reference. A Gibbs chain visits the joint states of its tuple's missing
   cells in a fixed attribute order, each step drawing from the model's
   own conditional ([Gibbs.conditional]). One sweep is therefore a finite
   Markov kernel P = K_{m1} … K_{mk} over those states, and the recorded
   points (one per sweep) converge to P's exact stationary distribution
   π, which [stationary] builds and solves below. MRSL conditionals form
   a dependency network, so π is not the BN posterior: the posterior
   carries the model's bias and is checked separately (KL, in the
   sampling suite). π is what an unbiased sampler must reproduce.

   Bound. For N recorded points whose indicator series for state s has
   effective sample size n_s ([Diagnostics.effective_sample_size] on a
   long pilot chain, scaled to N), the frequency error e_s of state s is
   approximately normal with variance v_s = π_s (1 − π_s) / n_s, so
   E[TV] = ½ Σ_s E|e_s| ≈ ½ √(2/π) Σ_s √v_s, plus the estimate's
   smoothing-floor bias, computed exactly. One run's TV has standard
   deviation at most ½ Σ_s √v_s · √(1 − 2/π) (Minkowski on E[TV²]). Over
   K seeds the mean TV must stay below its expectation plus [z] standard
   errors, [z] being the one-sided normal quantile for a false alarm rate
   of 5e-4 per check: nothing in the bound is fitted to observed errors.

   Scope. Tuple-at-a-time nodes and tuple-DAG roots run their own chains
   and are checked against their π. All-at-a-time nodes keep the points
   of one chain over the fully unknown tuple t* that match their
   evidence, so their exact reference is t*'s stationary distribution
   conditioned on that evidence. Under a dependency network this differs
   from the node's own π (the fixture shows gaps up to 0.08 TV, printed
   by the first test), so all-at-a-time is checked against it rather than
   against tuple-at-a-time. Tuple-DAG nodes fed by donations mix a
   parent's points with their own chain's, so they have no closed-form
   reference: they are checked against independent tuple-at-a-time runs,
   with the bound set by tuple-at-a-time's own seed-to-seed spread.
   Tuple-at-a-time and tuple-DAG run through [Workload.run] and through
   [Workload.run_contained] at 1, 2 and 4 domains, with the conditional
   tables on and off, and at 2 domains under a convergence-retry policy
   (as it stands, and with nonconvergence forced at rate 0.5, so that
   retried nodes estimate from 2N or 4N points and their subsumees take
   donations from those bags). All-at-a-time runs one chain on the
   calling domain whatever the domain count; its statistical check runs
   with the tables on, and with them off its estimates must equal the
   tables-on ones bit for bit (one tables-off run of its chain costs
   about 0.8 s).

   Controls. A test-local executor replays the tuple-DAG schedule with a
   list-based donation: honouring the subsumee's evidence it must pass
   the shared-node check, and ignoring it (every parent sample is taken,
   matching or not) it must fail. *)

let config = { Mrsl.Gibbs.burn_in = 30; samples = 240 }
let seeds = 20

(* One-sided normal quantile at 5e-4. *)
let z = 3.29

(* --- fixture ----------------------------------------------------------- *)

(* BN9: a crown of six binary attributes. Four sampled points each give a
   3-missing tuple and two 2-missing subsumees of it, so the DAG has four
   roots and eight donation-fed nodes. Each root also has a single-missing
   leaf below it, last in node order: it takes the vote, runs no chain and
   takes no donations, so the other twelve nodes sample as they would
   without it. *)
let fixture =
  lazy
    (let entry = Bayesnet.Catalog.find "BN9" in
     let r = Prob.Rng.create 2011 in
     let net = Bayesnet.Network.generate r entry.topology in
     let model =
       Mrsl.Model.learn
         ~params:{ Mrsl.Model.default_params with support_threshold = 0.01 }
         (Bayesnet.Network.sample_instance r net 3000)
     in
     let roots =
       List.map
         (fun _ ->
           let p = Bayesnet.Network.sample_point r net in
           (p, Prob.Rng.sample_without_replacement r 3 (Array.length p)))
         (List.init 4 Fun.id)
     in
     let with_missing p cells =
       let tup = Relation.Tuple.of_point p in
       List.iter (fun a -> tup.(a) <- None) cells;
       tup
     in
     let tuples =
       List.concat_map
         (fun (p, masked) ->
           with_missing p masked
           :: List.map
                (fun a -> with_missing p (List.filter (( <> ) a) masked))
                (List.filteri (fun j _ -> j < 2) masked))
         roots
       @ List.map (fun (p, masked) -> with_missing p [ List.nth masked 2 ]) roots
     in
     (model, tuples, Mrsl.Tuple_dag.build tuples))

let missing_cards model (tup : Relation.Tuple.t) =
  let schema = Mrsl.Model.schema model in
  let missing = Array.of_list (Relation.Tuple.missing tup) in
  (missing, Array.map (Relation.Schema.cardinality schema) missing)

(* --- the exact references ---------------------------------------------- *)

(* The systematic-scan kernel's rows, one per joint state of the missing
   cells (mixed-radix codes, as in [Gibbs.estimate]), then P^(2^60) by
   repeated squaring: every row of it is π. *)
let stationary sampler model (tup : Relation.Tuple.t) =
  let missing, cards = missing_cards model tup in
  let size = Relation.Domain.count cards in
  let point = Array.map (function Some v -> v | None -> 0) tup in
  let step k dist =
    let out = Array.make size 0. in
    Relation.Domain.iter cards (fun code values ->
        if dist.(code) > 0. then begin
          Array.iteri (fun j v -> point.(missing.(j)) <- v) values;
          let cond = Mrsl.Gibbs.conditional sampler point missing.(k) in
          let values = Array.copy values in
          for v = 0 to cards.(k) - 1 do
            values.(k) <- v;
            let c = Relation.Domain.encode cards values in
            out.(c) <- out.(c) +. (dist.(code) *. Prob.Dist.prob cond v)
          done
        end);
    out
  in
  let row x =
    let d = ref (Array.init size (fun y -> if x = y then 1. else 0.)) in
    Array.iteri (fun k _ -> d := step k !d) missing;
    !d
  in
  let square m =
    Array.map
      (fun row ->
        let r =
          Array.init size (fun y ->
              let acc = ref 0. in
              Array.iteri (fun j p -> acc := !acc +. (p *. m.(j).(y))) row;
              !acc)
        in
        (* Renormalise: rounding would otherwise compound with each
           squaring. *)
        let total = Array.fold_left ( +. ) 0. r in
        Array.map (fun x -> x /. total) r)
      m
  in
  let m = ref (Array.init size row) in
  for _ = 1 to 60 do
    m := square !m
  done;
  !m.(0)

(* [pi_star] over every attribute (t*'s states), conditioned on [tup]'s
   evidence and indexed by [tup]'s missing cells. *)
let restrict model pi_star (tup : Relation.Tuple.t) =
  let schema = Mrsl.Model.schema model in
  let all_cards =
    Array.init
      (Relation.Schema.arity schema)
      (Relation.Schema.cardinality schema)
  in
  let missing, cards = missing_cards model tup in
  let out = Array.make (Relation.Domain.count cards) 0. in
  Relation.Domain.iter all_cards (fun code point ->
      if Relation.Tuple.matches ~point tup then begin
        let c =
          Relation.Domain.encode cards (Array.map (fun a -> point.(a)) missing)
        in
        out.(c) <- out.(c) +. pi_star.(code)
      end);
  let mass = Array.fold_left ( +. ) 0. out in
  Array.map (fun x -> x /. mass) out

(* Per-state ESS of one long pilot chain over [source], for each of
   [tuples] over the chain's points that match it (all of them when
   [source] is that tuple), as a fraction of the points kept. *)
let ess_per_point sampler model ~source ~sweeps seed tuples =
  let rng = Prob.Rng.create seed in
  let c = Mrsl.Gibbs.chain rng sampler source in
  for _ = 1 to config.burn_in do
    Mrsl.Gibbs.step rng c
  done;
  let kept =
    List.map (fun tup -> (tup, missing_cards model tup, ref [])) tuples
  in
  for _ = 1 to sweeps do
    Mrsl.Gibbs.step rng c;
    let p = Mrsl.Gibbs.current c in
    List.iter
      (fun (tup, (missing, cards), codes) ->
        if Relation.Tuple.matches ~point:p tup then
          codes :=
            Relation.Domain.encode cards (Array.map (fun a -> p.(a)) missing)
            :: !codes)
      kept
  done;
  List.map
    (fun (_, (_, cards), codes) ->
      let codes = Array.of_list (List.rev !codes) in
      let n = float_of_int (Array.length codes) in
      Array.init (Relation.Domain.count cards) (fun s ->
          Mrsl.Diagnostics.effective_sample_size
            (Array.map (fun c -> if c = s then 1. else 0.) codes)
          /. n))
    kept

type reference = {
  pi : Prob.Dist.t;
  mean_tv : float;  (** predicted E[TV] of an N-point estimate *)
  sd_tv : float;  (** upper bound on its standard deviation *)
}

let reference pi eff =
  let sum_sd = ref 0. in
  Array.iteri
    (fun s p ->
      let n = Float.max 1. (eff.(s) *. float_of_int config.samples) in
      sum_sd := !sum_sd +. sqrt (p *. (1. -. p) /. n))
    pi;
  let pi = Prob.Dist.of_weights pi in
  let smoothing_bias =
    Prob.Divergence.total_variation pi
      (Prob.Dist.smooth (Prob.Dist.to_array pi))
  in
  {
    pi;
    mean_tv = smoothing_bias +. (0.5 *. sqrt (2. /. Float.pi) *. !sum_sd);
    sd_tv = 0.5 *. !sum_sd *. sqrt (1. -. (2. /. Float.pi));
  }

(* Per node: its own chain's reference, and t*'s conditioned on it. *)
let references =
  lazy
    (let model, _, dag = Lazy.force fixture in
     let sampler = Mrsl.Gibbs.sampler model in
     let star =
       Array.make (Relation.Schema.arity (Mrsl.Model.schema model)) None
     in
     let tuples = Array.to_list (Mrsl.Tuple_dag.tuples dag) in
     let pi_star = stationary sampler model star in
     let star_eff =
       ess_per_point sampler model ~source:star ~sweeps:400_000 7927 tuples
     in
     Array.of_list
       (List.mapi
          (fun i (tup, eff) ->
            let own =
              reference
                (stationary sampler model tup)
                (List.hd
                   (ess_per_point sampler model ~source:tup ~sweeps:20_000
                      (7919 * (i + 1)) [ tup ]))
            in
            (own, reference (restrict model pi_star tup) eff))
          (List.combine tuples star_eff)))

(* --- executors --------------------------------------------------------- *)

(* Estimates in DAG node order. *)
let joints dag (result : Mrsl.Workload.result) =
  let out = Array.make (Mrsl.Tuple_dag.node_count dag) None in
  List.iter
    (fun (tup, (est : Mrsl.Gibbs.estimate)) ->
      match Mrsl.Tuple_dag.index_of dag tup with
      | Some i -> out.(i) <- Some est.joint
      | None -> Alcotest.fail "estimate for a tuple outside the workload")
    result.estimates;
  Array.map
    (function Some j -> j | None -> Alcotest.fail "node without an estimate")
    out

type executor = {
  name : string;
  all_at_a_time : bool;  (** whether this executor's runs cover it *)
  scheduled_only : bool;  (** whether it runs no all-at-a-time at all *)
  run : Mrsl.Workload.strategy -> int -> Prob.Dist.t array;
}

(* Runs are kept per (strategy, seed): the checks below share them. *)
let executor ?(all_at_a_time = true) ?(scheduled_only = false) name f =
  let runs = Hashtbl.create 64 in
  let run strategy seed =
    match Hashtbl.find_opt runs (strategy, seed) with
    | Some est -> est
    | None ->
        let est = f strategy seed in
        Hashtbl.replace runs (strategy, seed) est;
        est
  in
  { name; all_at_a_time; scheduled_only; run }

let executors =
  lazy
    (let model, tuples, dag = Lazy.force fixture in
     List.concat_map
       (fun memoize ->
         let tables = if memoize then "tables on" else "tables off" in
         executor ~all_at_a_time:memoize ("Workload.run, " ^ tables)
           (fun strategy seed ->
             joints dag
               (Mrsl.Workload.run ~config ~strategy (Prob.Rng.create seed)
                  (Mrsl.Gibbs.sampler ~memoize model)
                  tuples))
         :: List.map
              (fun domains ->
                executor ~all_at_a_time:memoize
                  (Printf.sprintf "run_contained %d domains, %s" domains
                     tables)
                  (fun strategy seed ->
                    joints dag
                      (Mrsl.Workload.run_contained ~config ~strategy ~memoize
                         ~domains ~seed model tuples)
                        .result))
              [ 1; 2; 4 ])
       [ true; false ]
     @ List.map
         (fun (label, nonconvergence_rate) ->
           executor ~all_at_a_time:false ~scheduled_only:true
             ("run_contained ~retry 2 domains, " ^ label)
             (fun strategy seed ->
               Mrsl.Fault_inject.with_config
                 {
                   Mrsl.Fault_inject.disabled with
                   seed;
                   nonconvergence_rate;
                 }
                 (fun () ->
                   joints dag
                     (Mrsl.Workload.run_contained ~config ~strategy
                        ~domains:2
                        ~retry:Mrsl.Diagnostics.default_retry_policy ~seed
                        model tuples)
                       .result)))
         [ ("default policy", 0.); ("forced rate 0.5", 0.5) ])

(* The tuple-DAG schedule with a list-based donation, replayed
   sequentially: a node pulls from its parents (ascending, oldest first)
   once they have all finished, then samples its own chain for the rest.
   [respect_evidence:false] takes every parent sample, matching the
   subsumee's evidence or not. *)
let local_dag ~respect_evidence seed =
  let model, _, dag = Lazy.force fixture in
  let sampler = Mrsl.Gibbs.sampler model in
  let n = Mrsl.Tuple_dag.node_count dag in
  let samples = Array.make n [] and count = Array.make n 0 in
  let finished = Array.make n false in
  let rec finish i =
    if not finished.(i) then begin
      let tup = Mrsl.Tuple_dag.tuple dag i in
      let parents = Mrsl.Tuple_dag.parents dag i in
      List.iter finish parents;
      List.iter
        (fun p ->
          List.iter
            (fun point ->
              if count.(i) < config.samples
                 && ((not respect_evidence)
                    || Relation.Tuple.matches ~point tup)
              then begin
                samples.(i) <- point :: samples.(i);
                count.(i) <- count.(i) + 1
              end)
            (List.rev samples.(p)))
        parents;
      if count.(i) < config.samples then begin
        let rng = Prob.Rng.create ((seed * 1009) + i) in
        let c = Mrsl.Gibbs.chain rng sampler tup in
        for _ = 1 to config.burn_in do
          Mrsl.Gibbs.step rng c
        done;
        while count.(i) < config.samples do
          samples.(i) <- Helpers.sweep rng c :: samples.(i);
          count.(i) <- count.(i) + 1
        done
      end;
      finished.(i) <- true
    end
  in
  Array.init n (fun i ->
      finish i;
      (Mrsl.Gibbs.estimate_of_points sampler (Mrsl.Tuple_dag.tuple dag i)
         samples.(i))
        .joint)

(* --- the checks -------------------------------------------------------- *)

type verdict = { observed : float; expected : float; bound : float }

let passes v = v.observed <= v.bound

let report label v =
  Printf.printf "%-62s mean TV %.4f  expected %.4f  bound %.4f  %s\n" label
    v.observed v.expected v.bound
    (if passes v then "ok" else "FAIL")

(* Mean TV to the references [refs] over [nodes] and the seeds 1 … K,
   against its predicted expectation plus z standard errors. *)
let exact_check refs run strategy nodes =
  let k = float_of_int seeds and m = float_of_int (List.length nodes) in
  let total = ref 0. in
  for seed = 1 to seeds do
    let est = run strategy seed in
    List.iter
      (fun i ->
        total := !total +. Prob.Divergence.total_variation refs.(i).pi est.(i))
      nodes
  done;
  let expected =
    List.fold_left (fun acc i -> acc +. refs.(i).mean_tv) 0. nodes /. m
  in
  let var =
    List.fold_left (fun acc i -> acc +. (refs.(i).sd_tv ** 2.)) 0. nodes
  in
  {
    observed = !total /. (k *. m);
    expected;
    bound = expected +. (z *. sqrt (var /. k) /. m);
  }

(* Tuple-at-a-time runs at seeds 1 … K (set A) and K+1 … 2K (set B). *)
let tat_sets run =
  ( Array.init seeds (fun k -> run Mrsl.Workload.Tuple_at_a_time (k + 1)),
    Array.init seeds (fun k ->
        run Mrsl.Workload.Tuple_at_a_time (seeds + k + 1)) )

(* Mean TV(C_k, B_k) over [nodes] against tuple-at-a-time's own spread:
   the mean TV(A_k, B_k) plus z standard errors of a difference of two
   means, each with the per-node seed-to-seed variance of TV(A_k, B_k). *)
let shared_check (a, b) candidate nodes =
  let k = float_of_int seeds and m = float_of_int (List.length nodes) in
  let observed = ref 0. and spread = ref 0. and var = ref 0. in
  List.iter
    (fun i ->
      let tv x = Prob.Divergence.total_variation x.(i) in
      let s = Array.init seeds (fun j -> tv a.(j) b.(j).(i)) in
      let mean = Array.fold_left ( +. ) 0. s /. k in
      spread := !spread +. mean;
      var :=
        !var
        +. Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. s
           /. (k -. 1.);
      Array.iteri
        (fun j c -> observed := !observed +. tv c b.(j).(i))
        candidate)
    nodes;
  {
    observed = !observed /. (k *. m);
    expected = !spread /. m;
    bound = (!spread /. m) +. (z *. sqrt (2. *. !var /. k) /. m);
  }

(* The chain nodes (all, roots, donation-fed) and the single-missing
   leaves. *)
let dag_nodes () =
  let _, _, dag = Lazy.force fixture in
  let nodes = List.init (Mrsl.Tuple_dag.node_count dag) Fun.id in
  let leaves, all =
    List.partition
      (fun i -> Relation.Tuple.missing_count (Mrsl.Tuple_dag.tuple dag i) = 1)
      nodes
  in
  let roots = Mrsl.Tuple_dag.roots dag in
  (all, roots, List.filter (fun i -> not (List.mem i roots)) all, leaves)

let test_fixture_shape () =
  let all, roots, shared, leaves = dag_nodes () in
  let _, _, dag = Lazy.force fixture in
  List.iter
    (fun i ->
      let k = Relation.Tuple.missing_count (Mrsl.Tuple_dag.tuple dag i) in
      if k < 2 || k > 3 then Alcotest.failf "tuple with %d missing cells" k)
    all;
  Alcotest.(check int) "roots" 4 (List.length roots);
  Alcotest.(check int) "nodes fed by donations" 8 (List.length shared);
  Alcotest.(check (list int)) "single-missing leaves, last" [ 12; 13; 14; 15 ]
    leaves;
  List.iter
    (fun i ->
      Alcotest.(check (list int)) "a leaf" [] (Mrsl.Tuple_dag.children dag i);
      Alcotest.(check bool) "below a root's subtree" true
        (Mrsl.Tuple_dag.parents dag i <> []))
    leaves;
  (* The references are distributions, and the predicted errors are
     informative: well below the TV of a uniform guess. *)
  Array.iteri
    (fun i (own, global) ->
      Helpers.check_dist_sums_to_one "own π sums to one" own.pi;
      Helpers.check_dist_sums_to_one "t* π sums to one" global.pi;
      Alcotest.(check bool) "predicted TV small" true
        (own.mean_tv < 0.2 && global.mean_tv < 0.2);
      Printf.printf "node %2d: own-chain vs t*-chain reference TV %.4f\n" i
        (Prob.Divergence.total_variation own.pi global.pi))
    (Lazy.force references)

let test_exact_reference () =
  let all, roots, _, _ = dag_nodes () in
  let refs = Lazy.force references in
  let own = Array.map fst refs and global = Array.map snd refs in
  List.iter
    (fun ex ->
      let checks =
        [
          ( "tuple-at-a-time vs own π",
            exact_check own ex.run Mrsl.Workload.Tuple_at_a_time all );
          ( "tuple-DAG roots vs own π",
            exact_check own ex.run Mrsl.Workload.Tuple_dag roots );
        ]
        @
        if ex.all_at_a_time then
          [
            ( "all-at-a-time vs t* π",
              exact_check global ex.run Mrsl.Workload.All_at_a_time all );
          ]
        else []
      in
      List.iter (fun (label, v) -> report (ex.name ^ ": " ^ label) v) checks;
      if not (List.for_all (fun (_, v) -> passes v) checks) then
        Alcotest.failf "%s: mean TV to an exact reference above its bound"
          ex.name)
    (Lazy.force executors)

let test_all_at_a_time_tables_off () =
  match Lazy.force executors with
  | on :: rest ->
      let off =
        List.find (fun ex -> ex.name = "Workload.run, tables off") rest
      in
      List.iter
        (fun seed ->
          let a = on.run Mrsl.Workload.All_at_a_time seed
          and b = off.run Mrsl.Workload.All_at_a_time seed in
          Array.iteri
            (fun i x ->
              if Prob.Dist.to_array x <> Prob.Dist.to_array b.(i) then
                Alcotest.failf "seed %d node %d: tables off differ" seed i)
            a)
        [ 1; 2 ]
  | [] -> assert false

let test_shared_nodes () =
  let _, _, shared, _ = dag_nodes () in
  List.iter
    (fun ex ->
      let dag =
        shared_check (tat_sets ex.run)
          (Array.init seeds (fun k -> ex.run Mrsl.Workload.Tuple_dag (k + 1)))
          shared
      in
      report (ex.name ^ ": tuple-DAG shared vs tuple-at-a-time") dag;
      if not (passes dag) then
        Alcotest.failf "%s: shared estimates drift from tuple-at-a-time"
          ex.name)
    (Lazy.force executors)

(* A single-missing leaf is answered by Algorithm 2's vote, not sampled:
   every executor, strategy and table setting must return exactly
   [Infer_single]'s floats for it. *)
let test_single_missing_leaves () =
  let model, _, dag = Lazy.force fixture in
  let _, _, _, leaves = dag_nodes () in
  let method_ = Mrsl.Voting.best_averaged in
  List.iter
    (fun ex ->
      List.iter
        (fun strategy ->
          let est = ex.run strategy 1 in
          List.iter
            (fun i ->
              let tup = Mrsl.Tuple_dag.tuple dag i in
              let a = List.hd (Relation.Tuple.missing tup) in
              let exact = Mrsl.Infer_single.infer ~method_ model tup a in
              if Prob.Dist.to_array est.(i) <> Prob.Dist.to_array exact then
                Alcotest.failf "%s, %s: leaf %d is not Algorithm 2's answer"
                  ex.name
                  (Mrsl.Workload.strategy_name strategy)
                  i)
            leaves)
        (if ex.scheduled_only then Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ]
         else Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag; All_at_a_time ]))
    (Lazy.force executors)

let test_negative_control () =
  let _, _, shared, _ = dag_nodes () in
  let sets = tat_sets (List.hd (Lazy.force executors)).run in
  let local respect_evidence =
    shared_check sets
      (Array.init seeds (fun k -> local_dag ~respect_evidence (k + 1)))
      shared
  in
  let honest = local true and biased = local false in
  report "local donation honouring evidence" honest;
  report "local donation ignoring evidence (must fail)" biased;
  Alcotest.(check bool) "honest donation passes" true (passes honest);
  Alcotest.(check bool) "evidence-blind donation is caught" false
    (passes biased)

let suite =
  [
    ("fixture and references", `Quick, test_fixture_shape);
    ("own chains and t* chain = exact π", `Slow, test_exact_reference);
    ("all-at-a-time tables off = on", `Slow, test_all_at_a_time_tables_off);
    ("shared DAG nodes = TAT spread", `Slow, test_shared_nodes);
    ("single-missing leaves = Algorithm 2", `Slow, test_single_missing_leaves);
    ("negative control: evidence-blind donation", `Slow,
     test_negative_control);
  ]
