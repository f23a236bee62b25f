type point = {
  network : string;
  workload : int;
  single_missing : int;
  strategy : Mrsl.Workload.strategy;
  sampled_points : int;
  seconds : float;
}

let strategies = Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ]

let compute rng scale =
  let stream = Util.streams rng in
  let networks =
    Util.take scale.Scale.networks_cap
      Bayesnet.Catalog.multi_inference_networks
  in
  List.concat_map
    (fun (entry : Bayesnet.Catalog.entry) ->
      match
        Framework.prepare
          (stream ("prepare/" ^ entry.id) 0)
          scale entry ~train_size:scale.Scale.median_train
      with
      | [] -> []
      | prepared :: _ ->
          let model, _ =
            Framework.learn_timed prepared ~support:scale.Scale.median_support
          in
          List.concat_map
            (fun workload_size ->
              let workload =
                Framework.make_workload
                  (stream ("workload/" ^ entry.id) workload_size)
                  prepared ~size:workload_size
              in
              let single_missing =
                List.length
                  (List.filter
                     (fun t -> Relation.Tuple.missing_count t = 1)
                     workload)
              in
              (* Both strategies sample from the same stream. *)
              let gibbs () = stream ("gibbs/" ^ entry.id) workload_size in
              List.map
                (fun strategy ->
                  let stats =
                    Framework.workload_stats (gibbs ()) model ~strategy
                      ~samples:scale.Scale.workload_samples
                      ~burn_in:scale.Scale.burn_in workload
                  in
                  {
                    network = entry.id;
                    workload = List.length workload;
                    single_missing;
                    strategy;
                    sampled_points = stats.sweeps;
                    seconds = stats.wall_seconds;
                  })
                strategies)
            scale.Scale.workload_sizes)
    networks

let render rng scale =
  let points = compute rng scale in
  let rows =
    List.map
      (fun p ->
        Report.
          [
            S p.network; I p.workload; I p.single_missing;
            S (Mrsl.Workload.strategy_name p.strategy); I p.sampled_points;
            F p.seconds;
          ])
      points
  in
  let table =
    Report.render
      ~title:
        (Printf.sprintf
           "Fig 11: sampling cost vs workload size (%d points/tuple)"
           scale.Scale.workload_samples)
      ~header:
        [
          "network"; "workload"; "single-missing"; "strategy";
          "sampled points"; "time (s)";
        ]
      rows
  in
  (* Per-strategy averages per workload size — the two lines of the
     figure. *)
  let sizes = List.sort_uniq Int.compare (List.map (fun p -> p.workload) points) in
  let summary_of ~title measure =
    let row w =
      let cell s =
        let matching =
          List.filter (fun p -> p.workload = w && p.strategy = s) points
        in
        Util.avg_by measure matching
      in
      (float_of_int w, List.map cell strategies)
    in
    Report.render_series ~title ~x_label:"workload"
      ~series:(List.map Mrsl.Workload.strategy_name strategies)
      (List.map row sizes)
  in
  let summary =
    summary_of ~title:"Fig 11 (summary): mean sampled points by strategy"
      (fun p -> float_of_int p.sampled_points)
  in
  let time_summary =
    summary_of ~title:"Fig 11 (summary): mean inference time (s) by strategy"
      (fun p -> p.seconds)
  in
  String.concat "\n" [ table; summary; time_summary ]
