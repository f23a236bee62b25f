(* [learn]: Algorithm 1 on BN7 rows, then the save/load path a served
   model takes. The only workload where Mining does most of the work. *)

let network_id = "BN7"
let rows = 10_000
let tv_tasks = 500

let params =
  Common.
    [ ("network", Json.String network_id); ("rows", Json.Int rows);
      ("tv_tasks", Json.Int tv_tasks) ]
  @ Common.learn_params_json

let sample ~seed () =
  let net = Common.network network_id in
  (net, Bayesnet.Network.sample_instance (Common.rng ~seed "learn-rows" 0) net rows)

let learn inst = Mrsl.Model.learn ~params:Common.learn_params inst

(* One op: what [mrsl learn --save-model] and [mrsl serve] do between
   them. *)
let op inst =
  let model = learn inst in
  let kernel = Mrsl.Kernel.compile model in
  let text = Mrsl.Model_io.to_string model in
  (model, kernel, text, Mrsl.Model_io.of_string text)

(* The op's output check: the share of the saved model's lines that
   [to_string (of_string s)] reproduces byte for byte, and whether that is
   all of them with every attribute's kernel compiled. A share rather
   than a pass/fail count, so a partial round trip still reads as how
   much of the model survived. *)
let check (model, kernel, text, loaded) =
  let saved = String.split_on_char '\n' text
  and again = String.split_on_char '\n' (Mrsl.Model_io.to_string loaded) in
  let same =
    if List.compare_lengths saved again <> 0 then 0
    else List.length (List.filter Fun.id (List.map2 String.equal saved again))
  in
  let share = float_of_int same /. float_of_int (List.length saved) in
  ( share,
    share = 1.
    && List.for_all
         (Mrsl.Kernel.attr_compiled kernel)
         (List.init (Relation.Schema.arity (Mrsl.Model.schema model)) Fun.id) )

let run ~seed ~seconds =
  let (net, inst), setup_s = Common.set_up (sample ~seed) in
  let times = ref [] and shares = ref [] and failed = ref 0 and last = ref None in
  let ops =
    Common.repeat ~seconds (fun _ ->
        Gc.full_major ();
        let r, dt = Common.timed (fun () -> op inst) in
        times := dt :: !times;
        let share, ok = check r in
        shares := share :: !shares;
        if not ok then incr failed;
        last := Some r)
  in
  let _, _, _, loaded = Option.get !last in
  let tv =
    Common.mean_tv_single net loaded
      (Common.single_missing_tasks net (Common.rng ~seed "learn-tv" 0) tv_tasks)
  in
  let op_s = Common.median !times in
  {
    Common.metrics =
      [
        ("setup_s", setup_s, "s");
        ("throughput_per_s", float_of_int rows /. op_s, "1/s");
        ("p50_ms", 1000. *. op_s, "ms");
        ("p90_ms", 1000. *. Common.quantile 0.9 !times, "ms");
        ("peak_heap_mb", Common.peak_heap_mb (), "MB");
        ("ok_share", Common.mean !shares, "share");
        ("tv_mean", tv, "tv");
      ];
    attempted = ops;
    failed = !failed;
  }

(* The layers of [op], timed one by one under their names in [add], plus
   both miners on their own. Returns the layered op's result and how many
   of its save-independent checks failed: FP-Growth must find Apriori's
   itemsets, and every attribute's kernel must compile. *)
let layers add inst =
  let schema = Relation.Instance.schema inst in
  let arity = Relation.Schema.arity schema in
  let cards = Array.init arity (Relation.Schema.cardinality schema) in
  let points = Relation.Instance.complete_part inst in
  let config =
    {
      Mining.Apriori.threshold = Common.learn_params.support_threshold;
      max_itemsets = Common.learn_params.max_itemsets;
    }
  in
  let failed = ref 0 in
  let apriori, apriori_s =
    Common.timed (fun () -> Mining.Apriori.mine ~config ~cards points)
  in
  add "apriori" apriori_s;
  add "itemsets" (float_of_int (Mining.Apriori.count apriori));
  let fp, fp_s =
    Common.timed (fun () -> Mining.Fp_growth.mine ~config ~cards points)
  in
  add "fp_growth" fp_s;
  let itemsets m = List.sort compare (Mining.Apriori.frequent m) in
  if itemsets fp <> itemsets apriori then incr failed;
  Gc.full_major ();
  let ((model, kernel, text, loaded), op_s), alloc =
    Common.alloc_mb (fun () ->
        Common.timed (fun () ->
            let model, learn_s = Common.timed (fun () -> learn inst) in
            let kernel, compile_s =
              Common.timed (fun () -> Mrsl.Kernel.compile model)
            in
            let text, save_s =
              Common.timed (fun () -> Mrsl.Model_io.to_string model)
            in
            let loaded, load_s =
              Common.timed (fun () -> Mrsl.Model_io.of_string text)
            in
            add "learn" learn_s;
            add "rules" (learn_s -. apriori_s);
            add "compile" compile_s;
            add "save" save_s;
            add "load" load_s;
            (model, kernel, text, loaded)))
  in
  add "traced_op" op_s;
  add "alloc" alloc;
  add "bytes" (float_of_int (String.length text));
  add "meta_rules" (float_of_int (Mrsl.Model.size model));
  if not (List.for_all (Mrsl.Kernel.attr_compiled kernel) (List.init arity Fun.id))
  then incr failed;
  ((model, kernel, text, loaded), !failed)

let layer_metrics med =
  let ms name = 1000. *. med name in
  [
    ("mining.apriori_ms", ms "apriori", "ms");
    ("mining.itemsets", med "itemsets", "count");
    ("mining.fp_growth_ms", ms "fp_growth", "ms");
    ("model.learn_ms", ms "learn", "ms");
    ("model.rules_ms", ms "rules", "ms");
    ("model.meta_rules", med "meta_rules", "count");
    ("kernel.compile_ms", ms "compile", "ms");
    ("model_io.save_ms", ms "save", "ms");
    ("model_io.load_ms", ms "load", "ms");
    ("model_io.bytes", med "bytes", "bytes");
    ("learn.alloc_mb", med "alloc", "MB");
  ]

let layer_parts med =
  let ms name = 1000. *. med name in
  [ ("learn", ms "learn"); ("compile", ms "compile"); ("save", ms "save");
    ("load", ms "load") ]

(* The traced run times whole ops, then the layers of [op] one by one,
   and reconciles them with the whole-op time. Both the whole op and the
   layered one must pass the op's output check. *)
let trace ~seed ~seconds =
  let _, inst = sample ~seed () in
  let samples = Common.Samples.create () in
  let add = Common.Samples.add samples in
  let failed = ref 0 in
  let ops =
    Common.repeat ~seconds (fun _ ->
        Gc.full_major ();
        let r, op_s = Common.timed (fun () -> op inst) in
        if not (snd (check r)) then incr failed;
        add "op" op_s;
        let r, layer_failed = layers add inst in
        failed := !failed + layer_failed;
        if not (snd (check r)) then incr failed)
  in
  let med = Common.Samples.median samples in
  let ms name = 1000. *. med name in
  Common.reconcile "learn" ~unit_:"ms" ~e2e_name:"op median" ~e2e:(ms "op")
    (layer_parts med);
  Printf.printf "traced learn: op %.4g ms traced vs %.4g ms untraced\n"
    (ms "traced_op") (ms "op");
  { Common.metrics = layer_metrics med; attempted = ops; failed = !failed }
