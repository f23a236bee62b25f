let () =
  Alcotest.run "mrsl-repro"
    [
      ("prob", Test_prob.suite);
      ("telemetry", Test_telemetry.suite);
      ("trace", Test_trace.suite);
      ("metrics", Test_metrics.suite);
      ("relation", Test_relation.suite);
      ("bayesnet", Test_bayesnet.suite);
      ("mining", Test_mining.suite);
      ("fp-growth", Test_fp_growth.suite);
      ("mrsl-model", Test_mrsl_model.suite);
      ("mrsl-sampling", Test_mrsl_sampling.suite);
      ("probdb", Test_probdb.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("consistency", Test_consistency.suite);
      ("baselines", Test_baselines.suite);
      ("persistence", Test_persistence.suite);
      ("queries", Test_queries.suite);
      ("faults", Test_faults.suite);
      ("cache", Test_cache.suite);
      ("serving", Test_serving.suite);
      ("stress", Test_stress.suite);
      ("drivers", Test_drivers.suite);
      ("quality", Test_quality.suite);
      ("resource", Test_resource.suite);
      ("kernel", Test_kernel.suite);
      ("sample-bag", Test_sample_bag.suite);
      ("oracle", Test_oracle.suite);
    ]
