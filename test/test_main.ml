let () =
  Alcotest.run "mcsim"
    [ Test_util.suite;
      Test_isa.suite;
      Test_ir.suite;
      Test_branch_cache.suite;
      Test_cpu.suite;
      Test_cluster.suite;
      Test_steering.suite;
      Test_compiler.suite;
      Test_trace.suite;
      Test_workload.suite;
      Test_timing.suite;
      Test_core.suite;
      Test_audit.suite;
      Test_engine.suite;
      Test_extensions.suite;
      Test_reassign.suite;
      Test_sampling.suite;
      Test_format.suite;
      Test_report.suite;
      Test_golden.suite;
      Test_obs.suite;
      Test_crossval.suite;
      Test_parallel.suite;
      Test_durable.suite;
      Test_trace_store.suite;
      Test_serve.suite;
      Test_sweep.suite ]
