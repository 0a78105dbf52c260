let () =
  Alcotest.run "omlt"
    [ Test_isa.suite; Test_objfile.suite; Test_machine.suite; Test_blocks.suite; Test_minic.suite; Test_linker.suite; Test_om.suite; Test_analysis.suite; Test_gc.suite; Test_relax.suite; Test_runtime.suite; Test_obs.suite; Test_integration.suite; Test_more.suite; Test_diff.suite; Test_fuzz.suite; Test_parallel.suite; Test_store.suite; Test_server.suite; Test_sched.suite; Test_load.suite ]
