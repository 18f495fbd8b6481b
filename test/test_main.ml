let () =
  Alcotest.run "tse"
    [
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("lens", Test_lens.suite);
      ("store", Test_store.suite);
      ("schema", Test_schema.suite);
      ("objmodel", Test_objmodel.suite);
      ("db", Test_db.suite);
      ("algebra", Test_algebra.suite);
      ("update", Test_update.suite);
      ("views", Test_views.suite);
      ("tse", Test_tse.suite);
      ("baselines", Test_baselines.suite);
      ("property", Test_property.suite);
      ("precheck", Test_precheck.suite);
      ("catalog", Test_catalog.suite);
      ("surface", Test_surface.suite);
      ("integration", Test_integration.suite);
      ("classifier", Test_classifier.suite);
      ("extensions", Test_extensions.suite);
      ("macros", Test_macros.suite);
      ("query", Test_query.suite);
      ("concurrency", Test_concurrency.suite);
      ("durability", Test_durability.suite);
      ("evolution-recovery", Test_evolution_recovery.suite);
      ("schema-stamp", Test_schema_stamp.suite);
      ("pool", Test_pool.suite);
      ("parallel", Test_parallel.suite);
      (* last: its sampler tests call Metrics.reset, which zeroes the
         global registry counters other suites read deltas from *)
      ("telemetry", Test_telemetry.suite);
    ]
