let () =
  Alcotest.run "branch_reorder"
    [
      ("mir", Test_mir.suite);
      ("mir-text", Test_mir_text.suite);
      ("validate", Test_validate.suite);
      ("frontend", Test_frontend.suite);
      ("sim", Test_sim.suite);
      ("opt", Test_opt.suite);
      ("analyses", Test_analyses.suite);
      ("dataflow", Test_dataflow.suite);
      ("range", Test_range.suite);
      ("detect", Test_detect.suite);
      ("cost", Test_cost.suite);
      ("transform", Test_transform.suite);
      ("coalesce", Test_coalesce.suite);
      ("common-succ", Test_common_succ.suite);
      ("workloads", Test_workloads.suite);
      ("workload-behaviour", Test_workload_behaviour.suite);
      ("driver", Test_driver.suite);
      ("properties", Test_properties.suite);
      ("check", Test_check.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("predecode", Test_predecode.suite);
      ("parallel", Test_parallel.suite);
      ("native", Test_native.suite);
      ("server", Test_server.suite);
      ("state", Test_state.suite);
      ("bench-db", Test_bench_db.suite);
      ("static", Test_static.suite);
      ("json", Test_json.suite);
    ]
