type point = {
  network : string;
  missing : int;
  points_per_tuple : int;
  kl : float;
  top1 : float;
}

let networks = [ "BN8"; "BN17"; "BN2" ]

let compute rng scale =
  let stream = Util.streams rng in
  List.concat_map
    (fun id ->
      let entry = Bayesnet.Catalog.find id in
      let arity = Bayesnet.Topology.size entry.topology in
      let reps =
        Framework.prepare (stream ("prepare/" ^ id) 0) scale entry
          ~train_size:scale.Scale.fixed_train
      in
      let models =
        List.map
          (fun prepared ->
            let model, _ =
              Framework.learn_timed prepared ~support:scale.Scale.fixed_support
            in
            (prepared, model))
          reps
      in
      List.concat_map
        (fun missing ->
          if missing >= arity then []
          else
            List.map
              (fun samples ->
                let accs =
                  List.mapi
                    (fun rep (prepared, model) ->
                      (* One stream per (network, missing, repetition):
                         every sample count scores the same tuples. *)
                      Framework.eval_joint
                        (stream (Printf.sprintf "joint/%s/%d" id missing) rep)
                        prepared model ~missing ~samples
                        ~burn_in:scale.Scale.burn_in
                        ~max_tuples:scale.Scale.joint_test_tuples)
                    models
                in
                let acc = Framework.merge accs in
                {
                  network = id;
                  missing;
                  points_per_tuple = samples;
                  kl = acc.kl;
                  top1 = acc.top1;
                })
              scale.Scale.points_per_tuple)
        scale.Scale.fig10_missing)
    networks

let render rng scale =
  let points = compute rng scale in
  String.concat "\n"
    (List.map
       (fun id ->
         let mine = List.filter (fun p -> p.network = id) points in
         let missing_counts =
           List.sort_uniq Int.compare (List.map (fun p -> p.missing) mine)
         in
         let series =
           List.map (fun m -> Printf.sprintf "%d missing" m) missing_counts
         in
         Report.render_series
           ~title:(Printf.sprintf "Fig 10 (%s): KL vs points per tuple" id)
           ~x_label:"points/tuple" ~series
           (List.map
              (fun samples ->
                ( float_of_int samples,
                  List.map
                    (fun m ->
                      match
                        List.find_opt
                          (fun p ->
                            p.missing = m && p.points_per_tuple = samples)
                          mine
                      with
                      | Some p -> p.kl
                      | None -> Float.nan)
                    missing_counts ))
              scale.Scale.points_per_tuple))
       networks)
