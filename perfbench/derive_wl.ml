(* [derive]: the paper's end-to-end derivation ([Probdb.Pdb.derive]:
   tuple-DAG, ordered Gibbs, block materialisation) over batches of
   incomplete BN10 tuples. Gibbs sweeps, the sampler memo, tuple-DAG
   sharing and blocks do the work; no posterior cache, protocol or server
   is on this path. *)

let network_id = "BN10"
let train_rows = 5000
let batch_size = 300
let gibbs = Mrsl.Gibbs.default_config

(* tv_mean is taken over this many leading batches, so it does not
   depend on how many batches a run completes. *)
let tv_batches = 3

let params =
  Common.
    [
      ("network", Json.String network_id);
      ("train_rows", Json.Int train_rows);
      ("batch_size", Json.Int batch_size);
      ("missing", Json.String "1 to arity-1, uniform (Fig 11)");
      ("burn_in", Json.Int gibbs.burn_in);
      ("samples", Json.Int gibbs.samples);
      ("strategy", Json.String "tuple-dag");
      ("tv_batches", Json.Int tv_batches);
    ]
  @ Common.learn_params_json

type setup = {
  net : Bayesnet.Network.t;
  prepared : Experiments.Framework.prepared;
  model : Mrsl.Model.t;
}

let set_up ~seed () =
  let net = Common.network network_id in
  let train =
    Bayesnet.Network.sample_instance
      (Common.rng ~seed "derive-rows" 0)
      net train_rows
  in
  let prepared =
    {
      Experiments.Framework.entry = Bayesnet.Catalog.find network_id;
      network = net;
      train;
      test_points = [||];
    }
  in
  { net; prepared; model = Mrsl.Model.learn ~params:Common.learn_params train }

(* Batch [k]: distinct tuples, each missing 1 to arity-1 attributes (Fig
   11's masking rule), drawn fresh from the network. *)
let batch ~seed s k =
  let tuples =
    Experiments.Framework.make_workload
      (Common.rng ~seed "derive-batch" k)
      s.prepared ~size:batch_size
  in
  if List.length tuples <> batch_size then failwith "derive: short batch";
  (tuples, Relation.Instance.make (Mrsl.Model.schema s.model) tuples)

let gibbs_rng ~seed k = Common.rng ~seed "derive-gibbs" k

let derive ~seed s k inst =
  Probdb.Pdb.derive ~config:gibbs (gibbs_rng ~seed k) s.model inst

(* Tuples of the batch that got exactly one valid block: its own, with
   probabilities summing to 1 within 1e-9. *)
let valid_blocks tuples db =
  let blocks = Probdb.Pdb.blocks db in
  if Array.length blocks <> List.length tuples then 0
  else
    List.fold_left ( + ) 0
      (List.mapi
         (fun i tup ->
           let b = blocks.(i) in
           let mass =
             List.fold_left
               (fun acc (a : Probdb.Block.alternative) -> acc +. a.prob)
               0. b.alternatives
           in
           if Relation.Tuple.equal b.source tup && Float.abs (mass -. 1.) <= 1e-9
           then 1
           else 0)
         tuples)

(* Total-variation distance of a block to the exact joint posterior of
   its tuple's missing attributes. *)
let block_tv net (b : Probdb.Block.t) =
  let missing, exact = Bayesnet.Network.posterior_joint net b.source in
  let derived = Hashtbl.create 64 in
  List.iter
    (fun (a : Probdb.Block.alternative) ->
      Hashtbl.replace derived
        (List.map (fun i -> a.point.(i)) missing)
        a.prob)
    b.alternatives;
  let cards =
    Array.of_list
      (List.map
         (Bayesnet.Topology.cardinality (Bayesnet.Network.topology net))
         missing)
  in
  let diff = ref 0. in
  Relation.Domain.iter cards (fun code values ->
      let p =
        Option.value ~default:0.
          (Hashtbl.find_opt derived (Array.to_list values))
      in
      diff := !diff +. Float.abs (p -. Prob.Dist.prob exact code));
  !diff /. 2.

let run ~seed ~seconds =
  let s, setup_s = Common.set_up (set_up ~seed) in
  let times = ref [] and tvs = ref [] and valid = ref 0 in
  let batches =
    Common.repeat ~min:tv_batches ~seconds (fun k ->
        let tuples, inst = batch ~seed s k in
        Gc.full_major ();
        let db, dt = Common.timed (fun () -> derive ~seed s k inst) in
        times := dt :: !times;
        valid := !valid + valid_blocks tuples db;
        if k < tv_batches then
          Array.iter
            (fun b -> tvs := block_tv s.net b :: !tvs)
            (Probdb.Pdb.blocks db))
  in
  let attempted = batches * batch_size in
  let batch_s = Common.median !times in
  {
    Common.metrics =
      [
        ("setup_s", setup_s, "s");
        ("throughput_per_s", float_of_int batch_size /. batch_s, "1/s");
        ("p50_ms", 1000. *. batch_s, "ms");
        ("p90_ms", 1000. *. Common.quantile 0.9 !times, "ms");
        ("peak_heap_mb", Common.peak_heap_mb (), "MB");
        ("ok_share", float_of_int !valid /. float_of_int attempted, "share");
        ("tv_mean", Common.mean !tvs, "tv");
      ];
    attempted;
    failed = attempted - !valid;
  }

(* The traced run repeats each batch's derivation (which must give
   identical blocks), then calls its layers one by one with the same RNG:
   the tuple DAG on its own, then a fresh sampler, [Workload.run] and
   block materialisation, whose blocks must equal [Pdb.derive]'s. *)
let trace ~seed ~seconds =
  let s = set_up ~seed () in
  let samples = Common.Samples.create () in
  let add = Common.Samples.add samples in
  let failed = ref 0 in
  let batches =
    Common.repeat ~seconds (fun k ->
        let tuples, inst = batch ~seed s k in
        Gc.full_major ();
        let (db, batch_s), alloc =
          Common.alloc_mb (fun () ->
              Common.timed (fun () -> derive ~seed s k inst))
        in
        add "batch" batch_s;
        add "alloc" alloc;
        failed := !failed + batch_size - valid_blocks tuples db;
        let blocks = Probdb.Pdb.blocks db in
        if Probdb.Pdb.blocks (derive ~seed s k inst) <> blocks then
          failed := !failed + batch_size;
        let dag, build_s = Common.timed (fun () -> Mrsl.Tuple_dag.build tuples) in
        add "build" build_s;
        add "nodes" (float_of_int (Mrsl.Tuple_dag.node_count dag));
        add "edges" (float_of_int (Mrsl.Tuple_dag.edge_count dag));
        add "roots" (float_of_int (List.length (Mrsl.Tuple_dag.roots dag)));
        Gc.full_major ();
        let start = Common.now_ns () in
        let sampler = Mrsl.Gibbs.sampler s.model in
        let result, run_s =
          Common.timed (fun () ->
              Mrsl.Workload.run ~config:gibbs (gibbs_rng ~seed k) sampler tuples)
        in
        let layered, materialize_s =
          Common.timed (fun () ->
              List.map
                (fun (_, est) -> Probdb.Block.of_estimate est)
                result.estimates)
        in
        add "traced_batch" (Common.seconds_since start);
        if Array.of_list layered <> blocks then failed := !failed + batch_size;
        add "run" run_s;
        add "materialize" materialize_s;
        let st = result.stats in
        add "sweeps" (float_of_int st.sweeps);
        add "recorded" (float_of_int st.recorded);
        add "shared" (float_of_int st.shared);
        add "shared_share"
          (float_of_int st.shared /. float_of_int (max 1 st.recorded));
        let hits, misses = Mrsl.Gibbs.cache_stats sampler in
        add "memo_misses" (float_of_int misses);
        add "memo_hit_rate"
          (float_of_int hits /. float_of_int (max 1 (hits + misses))))
  in
  let med = Common.Samples.median samples in
  let ms name = 1000. *. med name in
  Common.reconcile "derive" ~unit_:"ms" ~e2e_name:"batch median"
    ~e2e:(ms "batch")
    [ ("workload.run", ms "run"); ("pdb.materialize", ms "materialize") ];
  Printf.printf "traced derive: batch %.4g ms traced vs %.4g ms untraced\n"
    (ms "traced_batch") (ms "batch");
  {
    Common.metrics =
      [
        ("tuple_dag.build_ms", ms "build", "ms");
        ("tuple_dag.nodes", med "nodes", "count");
        ("tuple_dag.edges", med "edges", "count");
        ("tuple_dag.roots", med "roots", "count");
        ("workload.run_ms", ms "run", "ms");
        ("workload.sweeps", med "sweeps", "count");
        ("workload.recorded", med "recorded", "count");
        ("workload.shared", med "shared", "count");
        ("workload.shared_share", med "shared_share", "share");
        ("gibbs.memo_hit_rate", med "memo_hit_rate", "share");
        ("gibbs.memo_misses", med "memo_misses", "count");
        ("pdb.materialize_ms", ms "materialize", "ms");
        ("derive.alloc_mb", med "alloc", "MB");
      ];
    attempted = batches * batch_size;
    failed = !failed;
  }
