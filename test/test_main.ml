(* Test entry point: every suite, one alcotest binary (`dune runtest`). *)

let () =
  Alcotest.run "holes"
    [
      ("stdx", Test_stdx.suite);
      ("pcm", Test_pcm.suite);
      ("osal", Test_osal.suite);
      ("heap", Test_heap.suite);
      ("immix", Test_immix.suite);
      ("mark-sweep", Test_mark_sweep.suite);
      ("failure-aware", Test_failure_aware.suite);
      ("vm", Test_vm.suite);
      ("workload", Test_workload.suite);
      ("exp", Test_exp.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("hotpath", Test_hotpath.suite);
      ("failure_model", Test_failure_model.suite);
      ("translate", Test_translate.suite);
      ("verify", Test_verify.suite);
      ("integration", Test_integration.suite);
      ("backend", Test_backend.suite);
      ("fleet", Test_fleet.suite);
      ("hybrid", Test_hybrid.suite);
      ("paths", Test_paths.suite);
    ]
